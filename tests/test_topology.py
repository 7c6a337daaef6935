"""Subset bookkeeping checks.

The lex enumeration, which ranks every subset by its place in it, is
checked against itertools.combinations.
"""

from __future__ import annotations

import itertools
from math import comb

import pytest

from maclfr.errors import DomainError, UsageError
from maclfr.schemes import SchemeConfig, SchemeKind, simulate
from maclfr.topology import TopologySpec, enumerate_subsets, share_index_of_cache


def test_enumeration_is_lex_ordered_and_complete():
    for n in range(0, 7):
        for k in range(0, n + 2):
            subsets = enumerate_subsets(n, k)
            assert subsets == tuple(
                itertools.combinations(range(1, n + 1), k))
            assert len(subsets) == (comb(n, k) if k <= n else 0)
            assert list(subsets) == sorted(subsets)
    with pytest.raises(UsageError):
        enumerate_subsets(-1, 2)


def test_share_index_is_position_within_user():
    assert share_index_of_cache((2, 5, 7), 2) == 1
    assert share_index_of_cache((2, 5, 7), 5) == 2
    assert share_index_of_cache((2, 5, 7), 7) == 3
    with pytest.raises(DomainError):
        share_index_of_cache((2, 5, 7), 3)


def test_topology_counts():
    topo = TopologySpec(5, 2, 2)
    assert topo.num_users == comb(5, 2) == 10
    assert topo.num_subfile_indices == comb(5, 2) == 10
    assert topo.num_transmissions == comb(5, 4) == 5
    assert len(topo.users()) == topo.num_users
    assert len(topo.subfile_indices()) == topo.num_subfile_indices
    assert len(topo.transmission_indices()) == topo.num_transmissions


def test_accessibility_is_intersection():
    # A user reaches, through its caches, exactly the subfile indices that
    # meet its access set, and so misses binom(C - r, t) of them.
    for C, r, t in ((4, 2, 1), (5, 2, 2), (5, 3, 1)):
        topo = TopologySpec(C, r, t)
        cfg = SchemeConfig(topo, 2, 2 * comb(C, t), SchemeKind.LFR)
        caches = simulate(cfg).placement.caches
        for user in topo.users():
            reached = {T for c in user for _, T in caches[c - 1].subfiles}
            assert reached == {T for T in topo.subfile_indices()
                               if set(user) & set(T)}
            assert topo.num_subfile_indices - len(reached) == comb(C - r, t)


def test_every_transmission_serves_each_contained_user_once():
    # For a (t + r)-set S and a user g inside it, the piece g decodes from
    # S is indexed by S \ g, which is a t-set disjoint from g.
    topo = TopologySpec(5, 2, 1)
    for S in topo.transmission_indices():
        members = [g for g in topo.users() if set(g) <= set(S)]
        assert len(members) == comb(len(S), topo.access_degree)
        for g in members:
            piece = tuple(sorted(set(S) - set(g)))
            assert len(piece) == topo.replication
            assert not set(g) & set(piece)


def test_parameter_validation():
    with pytest.raises(DomainError):
        TopologySpec(0, 1, 0)
    with pytest.raises(DomainError):
        TopologySpec(3, 4, 0)
    with pytest.raises(DomainError):
        TopologySpec(3, 2, 2)
    with pytest.raises(DomainError):
        TopologySpec(3, 0, 1)
