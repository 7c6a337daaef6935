"""Combinatorial multi-access topology.

C caches serve binom(C, r) cache-less users, one per r-subset of caches;
a user connects to exactly the caches in its subset.  Subfiles are indexed
by t-subsets of caches and transmissions by (t + r)-subsets, so the whole
layout is bookkeeping over sorted tuples of 1-based cache indices.  Lex
order of those tuples is the canonical order everywhere: a subset's rank
is its place in enumerate_subsets, and serialization follows it too.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb

from .errors import DomainError, UsageError

# Sorted tuple of 1-based cache indices.
CacheSet = tuple[int, ...]


@functools.lru_cache(maxsize=None)
def enumerate_subsets(num_caches: int, size: int) -> tuple[CacheSet, ...]:
    """All size-subsets of {1..num_caches} in lex order; empty if size > num_caches."""
    if num_caches < 0 or size < 0:
        raise UsageError(f"negative arguments ({num_caches}, {size})")
    return tuple(itertools.combinations(range(1, num_caches + 1), size))


def share_index_of_cache(user: CacheSet, cache: int) -> int:
    """1-based position of the cache within the user's sorted access set.

    Used to agree on which share / coded block a given member cache holds.
    """
    if cache not in user:
        raise DomainError(f"cache {cache} is not a member of {user}")
    return user.index(cache) + 1


@dataclass(frozen=True)
class TopologySpec:
    """Parameters (C, r, t) of one placement/delivery round."""

    num_caches: int
    access_degree: int
    replication: int

    def __post_init__(self) -> None:
        C, r, t = self.num_caches, self.access_degree, self.replication
        if C < 1:
            raise DomainError(f"need at least one cache, got {C}")
        if not 1 <= r <= C:
            raise DomainError(f"access degree {r} outside [1, {C}]")
        if not 0 <= t <= C - r:
            raise DomainError(f"replication {t} outside [0, {C - r}]")

    @property
    def num_users(self) -> int:
        return comb(self.num_caches, self.access_degree)

    @property
    def num_subfile_indices(self) -> int:
        return comb(self.num_caches, self.replication)

    @property
    def num_transmissions(self) -> int:
        return comb(self.num_caches, self.replication + self.access_degree)

    def users(self) -> tuple[CacheSet, ...]:
        return enumerate_subsets(self.num_caches, self.access_degree)

    def subfile_indices(self) -> tuple[CacheSet, ...]:
        return enumerate_subsets(self.num_caches, self.replication)

    def transmission_indices(self) -> tuple[CacheSet, ...]:
        return enumerate_subsets(self.num_caches,
                                 self.replication + self.access_degree)
