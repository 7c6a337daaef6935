"""Where everything sits, per topology: tables built once and cached.

_indices gives the index lists every round walks; _key_labels and
_subfile_labels give the label of each entry of a cache's key and subfile
rows, and _store_labels which of them labels each store placement fills;
_decode_plan gives decode_rows the place of every piece it reads, and
key_rows the ranks behind every masked key and share cut.
Each depends on the topology alone (the subfile labels also on the number
of files), so a table is built once per process and shared by every
Scheme of every config on it.
"""

from __future__ import annotations

import functools
from array import array
from bisect import bisect_left
from itertools import chain, combinations
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .topology import CacheSet, TopologySpec, share_index_of_cache


@functools.lru_cache(maxsize=None)
def _indices(topo: TopologySpec) -> tuple[Mapping, ...]:
    """The index lists every round walks, built once per topology.

    rank maps each subfile index T to its position in lex order.  rows
    maps each user g to the subfile indices it does not reach, in lex
    order: its slots, whose keys and shares sit side by side in a row.
    slots maps (g, T), lex in (g, T), to the rank of T and the transmission
    S = g + T that carries g's piece T.  members maps each transmission S,
    in lex order, to the triples (g, S minus g, its rank) of the users g
    inside S; senders, the same as (rank of g, rank of S minus g).  stored
    lists per cache the (rank, T) naming it, lex in T: its subfiles' order,
    each T's files in turn.
    """
    rank = {T: k for k, T in enumerate(topo.subfile_indices())}
    rows = {g: tuple(T for T in rank if not set(g) & set(T))
            for g in topo.users()}
    slots = {(g, T): (rank[T], tuple(sorted(g + T)))
             for g, row in rows.items() for T in row}
    members, senders, users = {}, [], list(rows)
    for S in topo.transmission_indices():
        rests = [(g, tuple(c for c in S if c not in g))
                 for g in combinations(S, topo.access_degree)]
        members[S] = tuple((g, rest, rank[rest]) for g, rest in rests)
        senders.append(tuple((users.index(g), rank[rest]) for g, rest in rests))
    stored = tuple(tuple((k, T) for T, k in rank.items() if c in T)
                   for c in range(1, topo.num_caches + 1))
    return (MappingProxyType(rank), MappingProxyType(slots),
            MappingProxyType(members), MappingProxyType(rows), stored, tuple(senders))


@functools.lru_cache(maxsize=None)
def _key_labels(topo: TopologySpec, by: str
                ) -> tuple[tuple[object, ...], ...]:
    """Per cache, the label of each entry of its key row, in row order: by
    "slot", the slot (g, T) of each user g of the cache, lex in (g, T); by
    "sent", each S naming the cache, lex."""
    _, slots, members, *_ = _indices(topo)
    labels = ([(slot, slot[0]) for slot in slots] if by == "slot" else
              [(S, S) for S in members])
    places: list[list] = [[] for _ in range(topo.num_caches)]
    for label, named in labels:
        for c in named:
            places[c - 1].append(label)
    return tuple(map(tuple, places))


@functools.lru_cache(maxsize=None)
def _subfile_labels(topo: TopologySpec, num_files: int
                    ) -> tuple[tuple[tuple[int, CacheSet], ...], ...]:
    """Per cache, the label (i, T) of each subfile in its row, as
    subfile_rows lays it out: lex in T, each T's files in turn.  The
    caches holding T share its labels."""
    labels = {T: tuple((i, T) for i in range(1, num_files + 1))
              for T in _indices(topo)[0]}
    return tuple(tuple(chain.from_iterable(labels[T] for _, T in held))
                 for held in _indices(topo)[4])


def _store_labels(topo: TopologySpec, num_files: int, store: str
                  ) -> tuple[tuple[object, ...], ...]:
    """Per cache, the labels of a CacheContent store as placement fills it:
    subfiles by (i, T), key shares by slot, whole and coded keys by S."""
    if store == "subfiles":
        return _subfile_labels(topo, num_files)
    return _key_labels(topo, "slot" if store == "key_shares" else "sent")


class _DecodePlan(NamedTuple):
    """Where decode_rows finds each piece, and key_rows each masked key
    and share cut, built once per topology.

    Slot x = u P + i is user rank u's slot i of P, lex in T; H is the
    number of pieces each cache stores per file, and Q the number of
    transmissions naming each cache.  Per slot, lex in x:
    - sends, owners and ranks: the ranks s of S, u of g and k of T;
    - lanes: lane m, the place ((c - 1) K + v) H + pos of the m-th other
      sender v's piece S minus v, where c is the first of g's caches in
      it and pos its place in c's store order;
    - keys: per j, the place (g[j] - 1) Q + q of S, q its place among the
      transmissions naming g[j], lex: the cache's payload key entry.
    Per user rank u:
    - pieces: for each rank k, where g's piece k sits in decode_rows'
      output words: g's own combination on its cache g[j] at
      (u r + j) H + pos, for the first g[j] holding k, else slot x at
      K r H + x;
    - cuts: at u r + j, the slot at which g's cut starts in cache g[j]'s
      share row, as key_rows lays it out.
    Per cache, holds: the cuts its share row holds, in order, each user g
    naming it lex: the place j K + u of g's cut of share j, the cache
    being g[j].
    classes group the slots by where g's caches sit in S: the positions,
    the slots lex in x, and where each user rank's slots begin in them.
    """

    per_user: int
    per_cache: int
    sends: array
    owners: array
    ranks: array
    lanes: tuple[array, ...]
    pieces: array
    cuts: array
    keys: tuple[array, ...]
    holds: tuple[array, ...]
    classes: tuple[tuple[tuple[int, ...], array, array], ...]


@functools.lru_cache(maxsize=None)
def _decode_plan(topo: TopologySpec) -> _DecodePlan:
    """The _DecodePlan of a topology, as arrays of places."""
    rank, slots, members, rows, stored, senders = _indices(topo)
    users, r = list(rows), topo.access_degree
    K, H, P = len(users), len(stored[0]), len(rows[users[0]])
    place = [{T: pos for pos, (_, T) in enumerate(held)} for held in stored]
    named = [{S: q for q, S in enumerate(at)}
             for at in _key_labels(topo, "sent")]
    Q, sent_rank = len(named[0]), {S: s for s, S in enumerate(members)}
    # 16-bit places while every place fits: the plan is half the size.
    code = "H" if max(len(stored) * K * H, K * (r * H + P),
                      len(stored) * Q) <= 1 << 16 else "I"
    sends, owners, ranks, pieces, cuts = (array(code) for _ in range(5))
    holders = [[g for g in users if c in g]
               for c in range(1, topo.num_caches + 1)]
    lanes = tuple(array(code) for _ in range(len(senders[0]) - 1))
    keys = tuple(array(code) for _ in range(r))
    holds = tuple(array(code) for _ in range(topo.num_caches))
    classes: dict[tuple[int, ...], array] = {}
    for u, g in enumerate(users):
        slot, held = {T: i for i, T in enumerate(rows[g])}, {}
        for T in rank:  # held: where g first holds each T it reaches
            j = next((j for j, c in enumerate(g) if c in T), None)
            if j is None:
                pieces.append(K * r * H + u * P + slot[T])
                continue
            pos = place[g[j] - 1][T]
            held[T] = (g[j] - 1) * K * H + pos
            pieces.append((u * r + j) * H + pos)
        for i, T in enumerate(rows[g]):
            k, S = slots[(g, T)]
            s = sent_rank[S]
            sends.append(s)
            owners.append(u)
            ranks.append(k)
            others = [(v, rest) for (v, _), (other, rest, _)
                      in zip(senders[s], members[S]) if other != g]
            for lane, (v, rest) in zip(lanes, others):
                lane.append(held[rest] + v * H)
            for at, c in zip(keys, g):
                at.append((c - 1) * Q + named[c - 1][S])
            classes.setdefault(tuple(share_index_of_cache(S, c) for c in g),
                               array(code)).append(u * P + i)
        cuts.extend(holders[c - 1].index(g) * P for c in g)
        for j, c in enumerate(g):
            holds[c - 1].append(j * K + u)
    return _DecodePlan(P, H, sends, owners, ranks, lanes, pieces, cuts, keys,
                       holds, tuple((positions, at, array(code, (
                           bisect_left(at, u * P) for u in range(K + 1))))
                           for positions, at in classes.items()))
