"""Exhaustive desk-scale verification oracles.

Three questions are answered exactly, never statistically:

* correctness -- does every user's decode equal the demanded combination,
  for whole batteries of demand tuples and seeds;
* content security -- is the mutual information between the library and
  the broadcast transmission alone exactly zero (for the keyed schemes)
  and strictly positive for the keyless baseline.  The eavesdropper sees
  the broadcast link and no cache: a cache holds subfiles whenever t >= 1
  (and whole keys under s-lfr), so broadcast plus one cache does leak;
* demand privacy -- conditioned on an observer's own demand, is the total
  variation distance between the observer-view distributions induced by
  any two assignments of the other users' demands exactly zero.

Distributions are taken over every library value and every server
randomness value (and every demand tuple, for privacy), with exact
rational probabilities.  Security leaves out the share coefficients:
no transmission reads them, so summing them out changes no probability.
Both oracles decide on a bilinear model of the views, never by walking
the states.  Every view is a GF(2) polynomial of degree at most two whose
only products pair a library bit with a demand or randomness bit.
(1 + |W|)(1 + |Z|) runs at the points 0, e_i, e_j and e_i + e_j recover
that model, where W is the library and Z the randomness runs the
transmission reads, key and mask (security), or the demands and all three
randomness runs (privacy).  For a fixed library the view is then uniform
on an affine coset, and both questions reduce to XOR and rank on echelon
bases.  The model is kept by input column, nonzero cross terms only: each
e_i + e_j run, its known terms XORed out, goes straight into its column,
and no run list is held.  Nor is the model taken on faith:
AFFINITY_PROBES (1 + |W|) real runs at random points must match it, and
the test suite cross-checks it against an enumeration of the engine on
small instances.

Both oracles see the engine through one function, _views, whose views
must equal those of one placed round per check.

Security answers by rank arguments: a fixed point over the randomness
columns proves that every library value gives the view one coset;
failing that, when the view reads its randomness, the mutual information
is the mean rank of the library's image.  What neither settles, a walk
over every library value decides from the cosets themselves.  Privacy:
each observer is certified by lifting the demand columns modulo such a
fixed point, or else its TV, 0 or 1 at each w, is one rank test per
library value w, tried at 0 and each e_i before the walk over all 2^|W|.
The cap bounds the engine runs, the rank-sum values, the library values
walked and the coset points the security walk counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import log2
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .bits import BitBlock
from .errors import IntegrityError, ResourceLimitError, UsageError
from .library import (DemandVector, FileLibrary, SubfileTable,
                      cycling_one_hot_demands, linear_combination)
# No run here subpacketizes a library; the name stays in this module for
# perfbench/tracer.py, which times it here as library.subpacketize.
from .library import subpacketize  # noqa: F401
from .mds import coded_block_bit_length, decode_key
from .schemes import (CacheContent, DeliveryTranscript, RandomnessLayout, Scheme,
                      SchemeConfig, SchemeKind, derive_rng)
from .shamir import reconstruct, share_set_from_blocks
from .topology import CacheSet, TopologySpec, share_index_of_cache

DEFAULT_STATE_CAP = 1 << 28
AFFINITY_PROBES = 8


# ---- state packing ----

def library_from_int(value: int, num_files: int, file_bits: int) -> FileLibrary:
    mask = (1 << file_bits) - 1
    return FileLibrary(tuple(
        BitBlock((value >> (i * file_bits)) & mask, file_bits)
        for i in range(num_files)))


def table_from_int(value: int, cfg: SchemeConfig) -> SubfileTable:
    """The subfile table of the library library_from_int(value, ...) packs,
    its files' images cut straight from the value."""
    fb = cfg.file_bits
    return SubfileTable(cfg.topo, fb, cfg.subfile_bits, tuple(
        [(value >> (i * fb)) & ((1 << fb) - 1) for i in range(cfg.num_files)]))


def demands_from_int(value: int, cfg: SchemeConfig) -> tuple[DemandVector, ...]:
    mask = (1 << cfg.num_files) - 1
    return tuple(
        DemandVector(g, (value >> (i * cfg.num_files)) & mask, cfg.num_files)
        for i, g in enumerate(cfg.topo.users()))


# ---- view extraction ----

class ViewExtractor:
    """Packs what an eavesdropper or a user observes into one integer.

    The transmission view is every bit on the broadcast link whose value
    can vary: payloads in index order plus, for the masking schemes, the
    masked demand vectors; in broadcast mode, the files in order.
    Cleartext demands are fixed public inputs in every check here, so they
    carry no information and are omitted.

    An observer view extends the transmission view with the observer's own
    demand and the full contents of its member caches.  Other users'
    cleartext demands are deliberately not included: for the cleartext
    schemes the interesting question is whether the protocol data leaks
    the demands, not whether a field literally labeled "demands" does.
    """

    def __init__(self, cfg: SchemeConfig):
        self.cfg = cfg
        self.topo = cfg.topo

    def transmission(self, transcript: DeliveryTranscript) -> tuple[int, int]:
        value = 0
        width = 0
        if transcript.broadcast_files is not None:
            for block in transcript.broadcast_files:
                value |= block.value << width
                width += block.length
            return value, width
        for S in self.topo.transmission_indices():
            block = transcript.payloads[S]
            value |= block.value << width
            width += block.length
        if self.cfg.kind.masks_demands:
            for g in self.topo.users():
                value |= transcript.masked_demands[g] << width
                width += self.cfg.num_files
        return value, width

    def observer(self, observer: CacheSet, caches: Sequence[CacheContent],
                 transcript: DeliveryTranscript, own_coeffs: int
                 ) -> tuple[int, int]:
        value, width = self.transmission(transcript)
        value |= own_coeffs << width
        width += self.cfg.num_files
        for c in observer:
            content = caches[c - 1]
            for store in (content.subfiles, content.key_shares,
                          content.whole_keys, content.coded_subkeys):
                for block in store.values():
                    value |= block.value << width
                    width += block.length
        return value, width


# The engine as the oracles see it: run(w, z) -> views, |W|, |Z| (_views).
Views = tuple[Callable[[int, int], tuple[int, ...]], int, int]


def _views(cfg: SchemeConfig, demands: Sequence[DemandVector] | None = None
           ) -> Views:
    """The engine as both oracles see it: (run, |W|, |Z|).

    `run(w, z)` runs the round at library value w and returns the views
    as ints.  Its transmission is Scheme.transmission_row's payload row,
    then for the masking kinds the sent row; no run builds a transcript.
    Given the fixed `demands` (security), packed into a demand row once,
    z is the randomness that reaches the transmission, the key and mask
    runs, and the one view is the transmission.  Otherwise (privacy) z
    holds the demand row in its low bits, as demands_from_int reads it,
    with every run of the randomness above, and there is one view per user
    in topo.users() order: the transmission, then the user's own demand,
    then per cache of the user its subfile row and its key row
    (Scheme.subfile_rows and Scheme.key_rows).  No run places the caches.
    One full placement and delivery, at a seeded point, checks the
    placement invariants and the battery, and there run(w, z) must equal
    ViewExtractor.transmission or ViewExtractor.observer, which define the
    views.  A run's subfile table is cut straight from w by table_from_int,
    and it and its subfile rows are kept per w.
    """
    scheme = Scheme(cfg)
    layout = RandomnessLayout.for_config(cfg, observers=demands is None)
    extractor = ViewExtractor(cfg)
    n, users = cfg.num_files, cfg.topo.users()
    table = lru_cache(maxsize=1)(lambda w: table_from_int(w, cfg))
    dbits = 0 if demands is not None else n * len(users)
    by_user = {d.user: d.coeffs for d in demands or ()}
    battery = sum(by_user.get(g, 0) << (u * n) for u, g in enumerate(users))
    subfile_rows = lru_cache(maxsize=1)(lambda w: scheme.subfile_rows(table(w)))
    own = (1 << n) - 1
    masked = cfg.kind.masks_demands and not cfg.broadcast
    pbits = n * cfg.file_bits if cfg.broadcast else (
        cfg.topo.num_transmissions * cfg.subfile_bits)
    width = pbits + masked * len(users) * n  # of the transmission view

    def run(w: int, z: int) -> tuple[int, ...]:
        d = z & ((1 << dbits) - 1)
        rnd = layout.unpack(z >> dbits)
        payloads, sent = scheme.transmission_row(rnd, table(w), d | battery)
        sent = payloads | sent << pbits if masked else payloads
        if not dbits:
            return (sent,)
        keys = scheme.key_rows(rnd, table(w))
        stores = list(zip(subfile_rows(w), keys))
        views = []
        for i, g in enumerate(users):
            view, at = sent | (d >> (i * n) & own) << width, width + n
            for c in g:
                for row, bits in stores[c - 1]:
                    view |= row << at
                    at += bits
            views.append(view)
        return tuple(views)

    wbits, zbits = n * cfg.file_bits, dbits + layout.total_bits
    rng = derive_rng(cfg.seed, "row-views")
    w, z = rng.getrandbits(wbits), rng.getrandbits(zbits)
    d = z & ((1 << dbits) - 1)
    placement = scheme.place(library_from_int(w, n, cfg.file_bits),
                             layout.unpack(z >> dbits))
    transcript = scheme.deliver(placement.randomness, placement.table,
                                demands_from_int(d, cfg) if dbits else demands)
    placed = ([extractor.observer(g, placement.caches, transcript,
                                  d >> (i * n) & own)[0]
               for i, g in enumerate(users)] if dbits
              else [extractor.transmission(transcript)[0]])
    if run(w, z) != tuple(placed):
        raise IntegrityError("the views read from the round's subfiles and "
                             "rows differ from the placed round's views")
    return run, wbits, zbits


# ---- bilinear model recovery ----

@dataclass(frozen=True)
class BilinearModel:
    """A view as a GF(2) function of library bits w and input bits z:

        V(w, z) = base ^ XOR_i w_i lib[i] ^ XOR_j z_j inp[j]
                       ^ XOR_ij w_i z_j cross[j][i]

    Column cross[j] maps library bit i to its coefficient, if nonzero.
    Every view of every kind has this shape: the only products pair a
    library bit with a demand or randomness bit (mask-induced keys and
    demanded combinations), while Shamir shares and MDS blocks are linear
    in their random inputs.
    """

    base: int
    lib: tuple[int, ...]
    inp: tuple[int, ...]
    cross: tuple[Mapping[int, int], ...]

    def at(self, w: int, z: int) -> int:
        acc, bits = self.base, w
        while bits:  # only the set bits of w and z, lowest first
            acc ^= self.lib[(bits & -bits).bit_length() - 1]
            bits &= bits - 1
        while z:
            j = (z & -z).bit_length() - 1
            acc ^= self.inp[j]
            for i, x in self.cross[j].items():
                if (w >> i) & 1:
                    acc ^= x
            z &= z - 1
        return acc


def _model_runs(wbits: int, zbits: int) -> int:
    """Engine runs that recovering and probing one bilinear model spend."""
    return (1 + wbits) * (1 + zbits) + AFFINITY_PROBES * (1 + wbits)


def _recover_models(run: Callable[[int, int], tuple[int, ...]],
                    labels: Sequence[str], wbits: int, zbits: int,
                    seed: int, cap: int) -> tuple[list[BilinearModel], int]:
    """One bilinear model per view, and the engine runs spent on them.

    `run(w, z)` runs the engine and returns one int per label.  Runs at
    0, e_i, e_j and e_i + e_j recover every coefficient: each (e_i, e_j)
    run, with base ^ lib[i] ^ inp[j] XORed out, is written straight into
    column j if nonzero, and no run is kept.  Real runs at
    AFFINITY_PROBES (1 + |W|) random points then check the models, and
    any mismatch raises, since the method's conclusions would not hold.
    """
    probes = AFFINITY_PROBES * (1 + wbits)
    runs = _model_runs(wbits, zbits)
    if runs > cap:
        raise ResourceLimitError(
            f"affine recovery needs {runs} engine runs, over the cap {cap}")

    base = run(0, 0)
    lib = [[a ^ b for a, b in zip(run(1 << i, 0), base)] for i in range(wbits)]
    inp = [[c ^ b for c, b in zip(run(0, 1 << j), base)] for j in range(zbits)]
    cross = [[{} for _ in range(zbits)] for _ in labels]  # cross[k][j][i]
    for i, a in enumerate(lib):
        known = [x ^ b for x, b in zip(a, base)]
        for j, c in enumerate(inp):
            for cols, v, x, y in zip(cross, run(1 << i, 1 << j), known, c):
                if v != x ^ y:
                    cols[j][i] = v ^ x ^ y
    # Built from lists: a tuple grown from a generator is resized, and the
    # tuples it leaves in the free lists make the process's memory creep.
    models = [BilinearModel(
                  base[k], tuple([a[k] for a in lib]), tuple([c[k] for c in inp]),
                  tuple(cols))
              for k, cols in enumerate(cross)]
    rng = derive_rng(seed, "affinity-probes")
    for _ in range(probes):
        w, z = rng.getrandbits(wbits), rng.getrandbits(zbits)
        for label, view, model in zip(labels, run(w, z), models):
            if view != model.at(w, z):
                raise IntegrityError(
                    f"the {label} view is not bilinear in the library and "
                    "the inputs; the affine method cannot be used here")
    return models, runs


def _echelon_basis(cols: Iterable[int]) -> tuple[int, ...]:
    """The reduced echelon basis of the GF(2) span of the masks: distinct
    leading bits, descending, each zero at the others' leading bits.  A
    span has exactly one, so equal spans give equal tuples."""
    basis: list[int] = []
    for col in cols:
        for b in basis:
            col = min(col, col ^ b)
        if col:
            basis = [min(b, b ^ col) for b in basis]
            basis.append(col)
            basis.sort(reverse=True)
    return tuple(basis)


def _reduce_point(point: int, basis: tuple[int, ...]) -> int:
    """The one element of point + span(basis) zero at every leading bit."""
    for b in basis:
        point = min(point, point ^ b)
    return point


def _settle(model: BilinearModel, cols: Iterable[int]
            ) -> tuple[tuple[int, ...], list[int]]:
    """The fixed point S over the input columns `cols`, as an echelon
    basis, and the columns left pending.  Column j settles once its every
    cross entry lies in S, and then inp[j] joins S.  Column j of the section
    at w is B_j(w) = inp[j] ^ XOR_i w_i cross[j][i], so a settled column
    has B_j(w) in inp[j] + S: by induction S lies in span{B_j(w) : j in
    cols} for every w."""
    pending = list(cols)
    basis: tuple[int, ...] = ()
    while True:
        settled = [j for j in pending
                   if not any(_reduce_point(x, basis)
                              for x in model.cross[j].values())]
        if not settled:
            return basis, pending
        basis = _echelon_basis(basis + tuple([model.inp[j] for j in settled]))
        pending = [j for j in pending if j not in settled]


# ---- security ----

@dataclass(frozen=True)
class SecurityCheckResult:
    cfg: SchemeConfig
    demands: tuple[int, ...]
    method: str
    states: int  # engine runs spent recovering and probing the model
    certified_zero: bool
    mi_bits: float


def _security_certified(model: BilinearModel) -> bool:
    """Whether the view is provably independent of the library: when every
    randomness column settles, span{B(w)} = S for every w, and when every
    lib[i] lies in S as well, every library value gives the view the coset
    base(0) + S.  False proves no leak."""
    basis, pending = _settle(model, range(len(model.inp)))
    return not pending and not any(_reduce_point(a, basis) for a in model.lib)


def _readable_mi(model: BilinearModel, cap: int) -> Fraction | None:
    """Exact I(W; V) when the view reads the randomness, else None: only
    the live columns, nonzero in inp or with a cross entry, move the view,
    and when their inp columns are independent modulo the span of lib and
    the live cross entries, the view determines those bits z.  Then I(W; V)
    = I(W; Z) + I(W; V | Z) = E_z rank M(z), where M(z) has the columns
    lib[i] ^ XOR_j z_j cross[j][i].  One rank per z, in Gray-code order."""
    live = [j for j, c in enumerate(model.inp) if c or model.cross[j]]
    rest = [*model.lib, *[x for j in live for x in model.cross[j].values()]]
    if (len(_echelon_basis(rest + [model.inp[j] for j in live]))
            < len(_echelon_basis(rest)) + len(live)):
        return None
    values = 1 << len(live)
    if values > cap:
        raise ResourceLimitError(
            f"the rank sum over {values} randomness values exceeds the cap {cap}")
    cols, total = list(model.lib), len(_echelon_basis(model.lib))
    for k in range(1, values):
        for i, x in model.cross[live[(k & -k).bit_length() - 1]].items():
            cols[i] ^= x
        total += len(_echelon_basis(cols))
    return Fraction(total, values)


def _walked_mi(model: BilinearModel, cap: int) -> tuple[bool, float]:
    """Exact I(W; V), and whether it is certified zero, by a walk over
    every library value w: at w the view is uniform on the coset
    base(w) + span{B_j(w)}, kept as (reduced echelon basis, reduced
    point), one key per coset.  One coset for every w certifies zero.
    Otherwise I(W; V) = H(V) - E_w rank, with H(V) from the points of the
    distinct cosets, each counted in integers weighted by the w that give
    it.  Refused above the cap: the 2^|W| library values, or the points of
    the distinct cosets."""
    wbits = len(model.lib)
    if 1 << wbits > cap:
        raise ResourceLimitError(f"the security walk over {1 << wbits} "
                                 f"library values exceeds the cap {cap}")
    cosets: Counter = Counter()
    for w in range(1 << wbits):
        basis = _echelon_basis(_section(model, w))
        cosets[basis, _reduce_point(model.at(w, 0), basis)] += 1
    if len(cosets) == 1:
        return True, 0.0
    points = sum(1 << len(basis) for basis, _ in cosets)
    if points > cap:
        raise ResourceLimitError(f"the security walk's {points} coset points "
                                 f"exceed the cap {cap}")
    top = max(len(basis) for basis, _ in cosets)
    counts: Counter = Counter()
    for (basis, point), times in cosets.items():
        span = [point]
        for b in basis:
            span += [v ^ b for v in span]
        for v in span:
            counts[v] += times << (top - len(basis))
    entropy = wbits + top - sum(c * log2(c) for c in counts.values()) / (
        1 << (wbits + top))
    ranks = sum(len(basis) * times for (basis, _), times in cosets.items())
    return False, entropy - ranks / (1 << wbits)


def check_security_exact(cfg: SchemeConfig,
                         demands: Sequence[DemandVector] | None = None,
                         method: str = "auto",
                         cap: int = DEFAULT_STATE_CAP,
                         jobs: int = 1) -> SecurityCheckResult:
    """Exact I(library; transmission) for a fixed demand battery.

    Security has one route, the recovered model: a zero certified by the
    fixed point, else the rank sum of _readable_mi, else the walk of
    _walked_mi over every library value.  `method` may be "auto" or
    "affine", which both name it, and `jobs` must be 1: the keywords stay
    only while the benchmark's workloads pass method="auto" and jobs=1.
    `cap` bounds the engine runs, the rank-sum values and the walk.
    """
    if method not in ("auto", "affine"):
        raise UsageError(f"security has one method, the affine model, "
                         f"not {method!r}")
    if jobs != 1:
        raise UsageError(f"jobs must be 1, got {jobs}")
    if demands is None:
        demands = cycling_one_hot_demands(cfg.topo, cfg.num_files)
    coeffs = tuple(d.coeffs for d in sorted(demands, key=lambda d: d.user))
    run, wbits, zbits = _views(cfg, demands)
    (model,), runs = _recover_models(run, ("transmission",), wbits, zbits,
                                     cfg.seed, cap)
    if _security_certified(model):
        return SecurityCheckResult(cfg, coeffs, "affine", runs, True, 0.0)
    bits = _readable_mi(model, cap)
    if bits is not None:
        return SecurityCheckResult(cfg, coeffs, "affine", runs, bits == 0,
                                   float(bits))
    return SecurityCheckResult(cfg, coeffs, "affine", runs,
                               *_walked_mi(model, cap))


# ---- privacy ----

@dataclass(frozen=True)
class PrivacyCheckResult:
    cfg: SchemeConfig
    method: str
    states: int  # engine runs spent recovering and probing the models
    max_tv: Fraction
    per_observer: Mapping[CacheSet, Fraction]

    @property
    def certified_zero(self) -> bool:
        return self.max_tv == 0


def check_privacy_exact(cfg: SchemeConfig, method: str = "auto",
                        cap: int = DEFAULT_STATE_CAP) -> PrivacyCheckResult:
    """Exact worst-case TV distance between observer-view distributions.

    For every user as observer, every fixed library value and every fixed
    own demand, the distribution of the observer's view over the server's
    randomness is compared across all assignments of the other users'
    demands; any difference is a demand leak.  Equality for every fixed
    library is stronger than (and implies) independence in the mixture
    over libraries, since demands and library are drawn independently.

    Privacy has one route: the recovered models, decided by
    _privacy_affine.  `method` may be "auto" or "affine", which both name
    it, and `cap` bounds its engine runs and the library values it walks.
    A single-user topology has nothing to compare and reports zero.
    """
    if method not in ("auto", "affine"):
        raise UsageError(f"privacy has one method, the affine model, "
                         f"not {method!r}")
    users = cfg.topo.users()
    run, wbits, zbits = _views(cfg)
    if len(users) == 1:
        return PrivacyCheckResult(cfg, "affine", 0, Fraction(0),
                                  {users[0]: Fraction(0)})
    labels = [f"observer {g}" for g in users]
    models, runs = _recover_models(run, labels, wbits, zbits, cfg.seed, cap)
    per_observer = _privacy_affine(cfg, models, cap)
    return PrivacyCheckResult(cfg, "affine", runs, max(per_observer.values()),
                              per_observer)


def _privacy_affine(cfg: SchemeConfig, models: Sequence[BilinearModel],
                    cap: int) -> dict[CacheSet, Fraction]:
    """Rank arguments on one bilinear model per user, over Z = D || R.

    For a fixed library and own demand, an observer's view is uniform on
    a coset of span{B_R(w)}, the randomness columns, shifted by the other
    users' demand columns they select.  Cosets of one subspace are equal
    or disjoint, so the TV is 0 when every other-user demand column lies
    in that span at every w, and 1 as soon as one falls outside it.  The
    lift certificate proves 0 for every w at once: with S the randomness
    columns' fixed point, lift column j to (inp[j], cross[j][0], ...)
    modulo S, each part at the view width; a demand lift in the span of
    the randomness lifts puts B_j(w) in span{B_R(w)} + S at every w.
    Otherwise w walks 0 and each e_i, then all of range(2^|W|), which
    raises ResourceLimitError above the cap: the first w with a demand
    column outside the span proves 1, and a finished walk proves 0.
    """
    users, n = cfg.topo.users(), cfg.num_files
    dbits = n * len(users)
    per_observer: dict[CacheSet, Fraction] = {}
    for i, (g, model) in enumerate(zip(users, models)):
        others = [j for j in range(dbits) if j // n != i]
        settled, _ = _settle(model, range(dbits, len(model.inp)))
        width = max(map(int.bit_length, chain((model.base,), model.lib, model.inp,
                                              *[c.values() for c in model.cross])))
        lifts = [_reduce_point(c, settled) | sum(_reduce_point(x, settled) << k * width
                                                 for k, x in col.items()) << width
                 for c, col in zip(model.inp, model.cross)]
        span = _echelon_basis(lifts[dbits:])
        certified = not any(_reduce_point(lifts[j], span) for j in others)
        per_observer[g] = Fraction(not certified and any(
            any(_reduce_point(cols[j], basis) for j in others)
            for cols in _sections(model, cap)
            for basis in [_echelon_basis(cols[dbits:])]))
    return per_observer


def _sections(model: BilinearModel, cap: int) -> Iterator[list[int]]:
    """The input columns at the library values the privacy walk tries: 0
    and each e_i, then every w below 2^|W|, refused above the cap."""
    wbits = len(model.lib)
    for k, w in enumerate(chain((0,), [1 << i for i in range(wbits)],
                                range(1 << wbits))):
        if k == 1 + wbits and 1 << wbits > cap:
            raise ResourceLimitError(f"the privacy walk over {1 << wbits} "
                                     f"library values exceeds the cap {cap}")
        yield _section(model, w)


def _section(model: BilinearModel, w: int) -> list[int]:
    """The input columns B_j(w) = inp[j] ^ XOR_i w_i cross[j][i] of the
    model's section at library value w."""
    cols = list(model.inp)
    for j, col in enumerate(model.cross):
        for i, x in col.items():
            if (w >> i) & 1:
                cols[j] ^= x
    return cols


# ---- correctness ----

@dataclass(frozen=True)
class CorrectnessFailure:
    seed: int
    battery: int
    user: CacheSet
    expected: str  # hex
    decoded: str   # hex


@dataclass(frozen=True)
class CorrectnessReport:
    cfg: SchemeConfig
    seeds: tuple[int, ...]
    batteries: int
    decodes: int
    failures: tuple[CorrectnessFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_correctness(cfg: SchemeConfig,
                      batteries: Iterable[Sequence[DemandVector]],
                      seeds: Sequence[int] = (0,)) -> CorrectnessReport:
    """Decode every user for every demand battery and seed, comparing
    against the independently computed linear combination of whole files.
    Placement does not depend on demands, so it runs once per seed, up
    front, and so does packing the placed caches into rows; the batteries
    are then streamed.  Failures are listed by seed, then battery, then
    user."""
    placed = []
    for seed in seeds:
        scheme = Scheme(replace(cfg, seed=seed))
        library = FileLibrary.random(derive_rng(seed, "library"),
                                     cfg.num_files, cfg.file_bits)
        placement = scheme.place(library)
        placed.append((seed, scheme, library, placement,
                       scheme._cache_rows(placement.caches)))
    failures: list[list[CorrectnessFailure]] = [[] for _ in placed]
    walked = decodes = 0
    for battery in map(tuple, batteries):
        for (seed, scheme, library, placement, rows), failed in zip(
                placed, failures):
            transcript = scheme.deliver(placement.randomness,
                                        placement.table, battery)
            decoded = scheme._decode_placed(rows, transcript, battery)
            decodes += len(battery)
            for demand, block in zip(battery, decoded):
                expected = linear_combination(demand, library)
                if block != expected:
                    failed.append(CorrectnessFailure(
                        seed, walked, demand.user,
                        expected.to_bytes().hex(), block.to_bytes().hex()))
        walked += 1
    return CorrectnessReport(cfg, tuple(seeds), walked, decodes,
                             tuple(chain.from_iterable(failures)))


# ---- structural key placement ----

@dataclass(frozen=True)
class SharePlacementReport:
    cfg: SchemeConfig
    keys_checked: int
    ok: bool
    problems: tuple[str, ...]


def check_share_placement_secrecy(cfg: SchemeConfig) -> SharePlacementReport:
    """Structural audit of where key material landed.

    Each key is recomputed from the round's randomness and library by the
    scheme's formula, never read back from placement: V[S] is the
    payload key of transmission S, and D[g, T] = V[S] ^ the combination
    that g's mask selects of subfile T, with S = g + T.  For the
    share-splitting kinds: the shares of each D[g, T] sit in exactly g's
    caches, every other user reaches at most r-1 of them (below the
    reconstruction threshold), and the full share set reconstructs it.
    For the coded kind: the blocks of each V[S] sit in exactly the caches
    S names, so users outside it reach fewer than the r blocks decoding
    needs, and every user inside S decodes V[S] from its r blocks.  For
    the whole-key kind: each V[S] sits, unaltered, in exactly the named
    caches (exposure to intersecting users is by design).  Missing or
    misplaced material is a problem, as is a wrong copy, a share or block
    of the wrong length, or blocks that do not decode.  The keyless kind
    has nothing to audit.
    """
    scheme = Scheme(cfg)
    library = FileLibrary.random(derive_rng(cfg.seed, "library"),
                                 cfg.num_files, cfg.file_bits)
    placement = scheme.place(library)
    caches, rnd = placement.caches, placement.randomness
    topo = cfg.topo
    r, sb = topo.access_degree, cfg.subfile_bits
    keys = {S: BitBlock(rnd.payload_keys >> (s * sb) & (1 << sb) - 1, sb)
            for s, S in enumerate(topo.transmission_indices())}
    problems: list[str] = []
    checked = 0

    def holders(store: str, label) -> set[int]:
        return {c.index for c in caches if label in getattr(c, store)}

    if cfg.kind.masks_demands and not cfg.broadcast:
        table, n, wb = placement.table, cfg.num_files, cfg.share_block_bits
        for u, g in enumerate(topo.users()):
            for T in (T for T in topo.subfile_indices() if not set(g) & set(T)):
                checked += 1
                secret = keys[tuple(sorted(g + T))]
                for i in range(n):  # the files g's mask selects, at T
                    if rnd.mask_vectors >> (u * n + i) & 1:
                        secret ^= table.subfile(i + 1, T)
                held = holders("key_shares", (g, T))
                if held != set(g):
                    problems.append(f"shares of D[{g},{T}] live in "
                                    f"{sorted(held)}")
                problems += [f"user {other} reaches {r} shares of D[{g},{T}]"
                             for other in topo.users()
                             if other != g and len(set(other) & held) >= r]
                blocks = [caches[c - 1].key_shares[(g, T)]
                          for c in g if c in held]
                wrong = [b.length for b in blocks if b.length != wb]
                if wrong:
                    problems.append(f"a share of D[{g},{T}] has {wrong[0]} "
                                    f"bits, expected {wb}")
                elif len(blocks) == r and reconstruct(share_set_from_blocks(
                        blocks, cfg.key_field, sb)) != secret:
                    problems.append(f"shares of D[{g},{T}] do not reconstruct it")
    elif cfg.kind.stores_keys_coded:
        code = cfg.key_code
        bits = coded_block_bit_length(sb, code)
        for S, key in keys.items():
            checked += 1
            held = holders("coded_subkeys", S)
            if held != set(S):
                problems.append(f"blocks of V[{S}] live in {sorted(held)}")
            for g in topo.users():
                reach = len(set(g) & held)
                if not set(g) <= set(S) and reach >= code.dimension:
                    problems.append(f"outside user {g} reaches {reach} "
                                    f"blocks of V[{S}]")
            # Every user inside S decodes V[S] from the blocks it reaches.
            blocks = {c: caches[c - 1].coded_subkeys[S]
                      for c in sorted(held & set(S))}
            wrong = [b.length for b in blocks.values() if b.length != bits]
            if wrong:
                problems.append(f"a block of V[{S}] has {wrong[0]} bits, "
                                f"expected {bits}")
            elif any(decode_key([(share_index_of_cache(S, c), blocks[c])
                                 for c in g], code, sb) != key
                     for g in combinations(blocks, code.dimension)):
                problems.append(f"blocks of V[{S}] do not decode to it")
    elif cfg.kind.stores_keys_whole:
        for S, key in keys.items():
            checked += 1
            held = holders("whole_keys", S)
            if held != set(S):
                problems.append(f"copies of V[{S}] live in {sorted(held)}")
            for c in sorted(held & set(S)):
                if caches[c - 1].whole_keys[S] != key:
                    problems.append(f"cache {c} holds a wrong copy of V[{S}]")
    return SharePlacementReport(cfg, checked, not problems, tuple(problems))


# ---- default sweeps ----

def tiny_sweep_topologies() -> tuple[tuple[int, int, int], ...]:
    """(C, r, t) triples small enough for the exact oracles: C in {3, 4},
    r in {2, 3}, every valid t."""
    triples = []
    for C in (3, 4):
        for r in (2, 3):
            for t in range(0, C - r + 1):
                triples.append((C, r, t))
    return tuple(triples)


def tiny_config(kind: SchemeKind, C: int, r: int, t: int,
                num_files: int = 2, seed: int = 0) -> SchemeConfig:
    """One-bit-subfile instance: F equals the subpacketization."""
    topo = TopologySpec(C, r, t)
    return SchemeConfig(topo, num_files, topo.num_subfile_indices, kind,
                        seed=seed)
