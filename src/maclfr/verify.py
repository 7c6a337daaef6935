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
rational probabilities.  Two evaluation methods exist:

* "enumerate" runs the real placement and delivery once per state.  It
  assumes nothing and is the gold standard, but state spaces explode.
* "affine" exploits that every view is a GF(2) polynomial of degree at
  most two whose only products pair a library bit with a demand or
  randomness bit.  (1 + |W|)(1 + |Z|) runs at the points 0, e_i, e_j and
  e_i + e_j recover that bilinear model, where W is the library and Z the
  randomness (security) or the demands and the randomness (privacy).  For
  a fixed library the view is then uniform on an affine coset, and both
  questions reduce to XOR and rank.  The model is not taken on faith:
  AFFINITY_PROBES (1 + |W|) real runs at random points must match it, and
  the test suite cross-checks the two methods against each other on
  instances small enough to enumerate.

On the security model, a rank certificate answers first, in time
polynomial in |W|, |Z| and the view width: a fixed point over the
randomness columns proves that every library value gives the view one
coset.  A certificate proves a zero; a failed one proves nothing, and the
answer then comes from walking all 2^|W| library values within the cap,
so the negative controls still get their exact nonzero values.  Privacy
runs its span test at every library value.

"auto" takes the route that spends fewer engine runs: enumeration spends
its state count, the model route (1 + |W|)(1 + |Z|) + AFFINITY_PROBES
(1 + |W|), and a tie enumerates.  The state cap bounds the states
enumeration walks through, and the engine runs and coset points of the
affine method.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from math import log2
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .bits import BitBlock
from .errors import DomainError, ResourceLimitError, UsageError
from .library import (DemandVector, FileLibrary, demands_by_user,
                      linear_combination)
from .library import subpacketize  # noqa: F401 - perfbench/tracer.py hooks it
from .schemes import (CacheContent, DeliveryTranscript, RandomnessLayout, Scheme,
                      SchemeConfig, SchemeKind, ServerRandomness, derive_rng,
                      scheme_for)
from .shamir import reconstruct, share_set_from_blocks
from .topology import CacheSet, TopologySpec

DEFAULT_STATE_CAP = 1 << 28
AFFINITY_PROBES = 8


# ---- exact distributions ----

JointDistribution = Mapping[tuple[Hashable, Hashable], Fraction]


@dataclass(frozen=True)
class MutualInformationResult:
    is_zero: bool   # certified by exact factorization
    bits: float     # floating point value; exactly 0.0 when is_zero


def mutual_information(joint: JointDistribution) -> MutualInformationResult:
    """I(X;Y) of an exact joint distribution.

    Zero is certified by checking p(x, y) == p(x) p(y) in rational
    arithmetic; the returned bits value comes from the usual logarithmic
    sum and is only as exact as floating point.
    """
    if not joint:
        raise DomainError("empty distribution")
    total = Fraction(0)
    for pair, p in joint.items():
        if not isinstance(p, Fraction):
            raise DomainError(f"probability of {pair} is not a Fraction")
        if p < 0:
            raise DomainError(f"negative probability for {pair}")
        total += p
    if total != 1:
        raise DomainError(f"probabilities sum to {total}, not 1")
    px: dict[Hashable, Fraction] = {}
    py: dict[Hashable, Fraction] = {}
    support = {pair: p for pair, p in joint.items() if p > 0}
    for (x, y), p in support.items():
        px[x] = px.get(x, Fraction(0)) + p
        py[y] = py.get(y, Fraction(0)) + p
    factorized = (len(support) == len(px) * len(py)
                  and all(p == px[x] * py[y] for (x, y), p in support.items()))
    if factorized:
        return MutualInformationResult(True, 0.0)
    bits = 0.0
    for (x, y), p in support.items():
        bits += float(p) * (log2(p) - log2(px[x]) - log2(py[y]))
    return MutualInformationResult(False, bits)


def total_variation(p: Mapping[Hashable, Fraction],
                    q: Mapping[Hashable, Fraction]) -> Fraction:
    keys = set(p) | set(q)
    acc = Fraction(0)
    for k in keys:
        acc += abs(p.get(k, Fraction(0)) - q.get(k, Fraction(0)))
    return acc / 2


# ---- state packing ----

def pack_library(library: FileLibrary) -> int:
    value = 0
    for i, f in enumerate(library.files):
        value |= f.value << (i * library.file_bits)
    return value


def library_from_int(value: int, num_files: int, file_bits: int) -> FileLibrary:
    mask = (1 << file_bits) - 1
    return FileLibrary(tuple(
        BitBlock((value >> (i * file_bits)) & mask, file_bits)
        for i in range(num_files)))


def pack_demands(demands: Sequence[DemandVector]) -> int:
    value = 0
    for i, d in enumerate(demands):
        value |= d.coeffs << (i * d.num_files)
    return value


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
    masked demand vectors.  Cleartext demands are fixed public inputs in
    every check here, so they carry no information and are omitted.

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


class _Runner:
    """Amortizes per-config setup for the many runs the oracles make."""

    def __init__(self, cfg: SchemeConfig):
        self.cfg = cfg
        self.scheme: Scheme = scheme_for(cfg)
        self.layout = RandomnessLayout.for_config(cfg)
        self.extractor = ViewExtractor(cfg)
        self.users = cfg.topo.users()

    def run_views(self, library: FileLibrary, demands: Sequence[DemandVector],
                  randomness: ServerRandomness,
                  with_observers: bool) -> tuple[int, dict[CacheSet, int]]:
        placement = self.scheme.place(library, randomness)
        transcript = self.scheme.deliver(placement.secrets, placement.table,
                                         demands)
        tview, _ = self.extractor.transmission(transcript)
        observer_views: dict[CacheSet, int] = {}
        if with_observers:
            by_user = demands_by_user(demands)
            for g in self.users:
                observer_views[g], _ = self.extractor.observer(
                    g, placement.caches, transcript, by_user[g].coeffs)
        return tview, observer_views


# ---- bilinear model recovery ----

@dataclass(frozen=True)
class BilinearModel:
    """A view as a GF(2) function of library bits w and input bits z:

        V(w, z) = base ^ XOR_i w_i lib[i] ^ XOR_j z_j inp[j]
                       ^ XOR_ij w_i z_j cross[i][j]

    Every view of every kind has this shape: the only products pair a
    library bit with a demand or randomness bit (mask-induced keys and
    demanded combinations), while Shamir shares and MDS blocks are linear
    in their random inputs.
    """

    base: int
    lib: tuple[int, ...]
    inp: tuple[int, ...]
    cross: tuple[tuple[int, ...], ...]

    def at(self, w: int, z: int) -> int:
        acc = self.base
        for i, (a, row) in enumerate(zip(self.lib, self.cross)):
            if (w >> i) & 1:
                acc ^= a
                for j, x in enumerate(row):
                    if (z >> j) & 1:
                        acc ^= x
        for j, c in enumerate(self.inp):
            if (z >> j) & 1:
                acc ^= c
        return acc

    def sections(self) -> Iterator[tuple[int, int, list[int]]]:
        """(w, base, columns) of the affine map z -> V(w, z) for every
        library value, in Gray-code order so each step XORs in one row."""
        w, base, cols = 0, self.base, list(self.inp)
        yield w, base, cols
        for k in range(1, 1 << len(self.lib)):
            i = (k & -k).bit_length() - 1
            w ^= 1 << i
            base ^= self.lib[i]
            cols = [c ^ x for c, x in zip(cols, self.cross[i])]
            yield w, base, cols


def _model_runs(wbits: int, zbits: int) -> int:
    """Engine runs that recovering and probing one bilinear model spend."""
    return (1 + wbits) * (1 + zbits) + AFFINITY_PROBES * (1 + wbits)


def _recover_models(run: Callable[[int, int], tuple[int, ...]],
                    labels: Sequence[str], wbits: int, zbits: int,
                    seed: int, cap: int) -> tuple[list[BilinearModel], int]:
    """One bilinear model per view, and the engine runs spent on them.

    `run(w, z)` runs the engine and returns one int per label.  Runs at
    0, e_i, e_j and e_i + e_j recover every coefficient; real runs at
    AFFINITY_PROBES (1 + |W|) random points then check the models, and
    any mismatch raises, since the method's conclusions would not hold.
    """
    probes = AFFINITY_PROBES * (1 + wbits)
    runs = _model_runs(wbits, zbits)
    if runs > cap:
        raise ResourceLimitError(
            f"affine recovery needs {runs} engine runs, over the cap {cap}")

    def delta(point: tuple[int, ...], *known: tuple[int, ...]) -> tuple[int, ...]:
        out = list(point)
        for vec in known:
            out = [a ^ b for a, b in zip(out, vec)]
        return tuple(out)

    base = run(0, 0)
    lib = [delta(run(1 << i, 0), base) for i in range(wbits)]
    inp = [delta(run(0, 1 << j), base) for j in range(zbits)]
    cross = [[delta(run(1 << i, 1 << j), base, lib[i], inp[j])
              for j in range(zbits)] for i in range(wbits)]
    models = [BilinearModel(base[k], tuple(a[k] for a in lib),
                            tuple(c[k] for c in inp),
                            tuple(tuple(x[k] for x in row) for row in cross))
              for k in range(len(labels))]
    rng = derive_rng(seed, "affinity-probes")
    for _ in range(probes):
        w, z = rng.getrandbits(wbits), rng.getrandbits(zbits)
        for label, view, model in zip(labels, run(w, z), models):
            if view != model.at(w, z):
                raise AssertionError(
                    f"the {label} view is not bilinear in the library and "
                    "the inputs; the affine method cannot be used here")
    return models, runs


def _rref_basis(cols: Iterable[int]) -> tuple[int, ...]:
    """Reduced row echelon basis of the GF(2) span of the given masks."""
    basis: list[int] = []
    for col in cols:
        for b in basis:
            col = min(col, col ^ b)
        if col:
            basis.append(col)
            basis.sort(reverse=True)
    # Back-substitute so each pivot appears in exactly one basis vector.
    for i, b in enumerate(basis):
        pivot = 1 << (b.bit_length() - 1)
        for j in range(len(basis)):
            if j != i and basis[j] & pivot:
                basis[j] ^= b
    return tuple(sorted(basis, reverse=True))


def _reduce_point(point: int, basis: tuple[int, ...]) -> int:
    for b in basis:
        point = min(point, point ^ b)
    return point


def _coset_canonical(base: int, cols: Sequence[int]
                     ) -> tuple[tuple[int, ...], int]:
    basis = _rref_basis(cols)
    return basis, _reduce_point(base, basis)


def _expand_span(basis: Sequence[int]) -> list[int]:
    """All 2^rank span points, by doubling."""
    points = [0]
    for b in basis:
        points += [p ^ b for p in points]
    return points


# ---- security ----

@dataclass(frozen=True)
class SecurityCheckResult:
    cfg: SchemeConfig
    demands: tuple[int, ...]
    method: str
    states: int  # states enumerated, or engine runs spent by "affine"
    certified_zero: bool
    mi_bits: float


def _security_bits(cfg: SchemeConfig) -> tuple[int, int]:
    """(library bits, randomness bits) of the security question."""
    return (cfg.num_files * cfg.file_bits,
            RandomnessLayout.for_config(cfg).total_bits)


def _choose_method(method: str, states: int, runs: int) -> str:
    """The route `method` names.  "auto" weighs the engine runs of each:
    `states` for enumeration, `runs` for the model, and enumerates only
    when that is not the dearer of the two."""
    if method not in ("auto", "enumerate", "affine"):
        raise UsageError(f"unknown method {method!r}")
    if method == "auto":
        return "enumerate" if states <= runs else "affine"
    return method


def security_joint_enumerated(cfg: SchemeConfig,
                              demands: Sequence[DemandVector],
                              cap: int = DEFAULT_STATE_CAP,
                              jobs: int = 1) -> dict[tuple[int, int], Fraction]:
    """The exact joint distribution of (library, transmission view) by
    running the real scheme on every single state."""
    if jobs < 1:
        raise UsageError(f"jobs must be at least 1, got {jobs}")
    wbits, zbits = _security_bits(cfg)
    lib_states, states = 1 << wbits, 1 << (wbits + zbits)
    if states > cap:
        raise ResourceLimitError(
            f"enumeration of {states} states exceeds the cap {cap}")
    demand_coeffs = tuple(d.coeffs for d in demands)
    if jobs > 1:
        counts = _parallel_security_counts(cfg, demand_coeffs, lib_states, jobs)
    else:
        counts = _security_counts(cfg, demand_coeffs, range(lib_states))
    prob = Fraction(1, states)
    return {pair: n * prob for pair, n in counts.items()}


def _security_counts(cfg: SchemeConfig, demand_coeffs: tuple[int, ...],
                     lib_values: Iterable[int]) -> Counter:
    runner = _Runner(cfg)
    demands = tuple(DemandVector(g, c, cfg.num_files)
                    for g, c in zip(cfg.topo.users(), demand_coeffs))
    rand_states = 1 << runner.layout.total_bits
    counts: Counter = Counter()
    for w in lib_values:
        library = library_from_int(w, cfg.num_files, cfg.file_bits)
        for rv in range(rand_states):
            tview, _ = runner.run_views(library, demands,
                                        runner.layout.unpack(rv), False)
            counts[(w, tview)] += 1
    return counts


def _parallel_security_counts(cfg: SchemeConfig, demand_coeffs: tuple[int, ...],
                              lib_states: int, jobs: int) -> Counter:
    from concurrent.futures import ProcessPoolExecutor

    jobs = min(jobs, lib_states)  # one worker per library value at most
    chunks = [range(start, lib_states, jobs) for start in range(jobs)]
    counts: Counter = Counter()
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_security_counts, cfg, demand_coeffs, list(ch))
                   for ch in chunks]
        for fut in futures:
            counts.update(fut.result())
    return counts


def _security_model(cfg: SchemeConfig, demands: Sequence[DemandVector],
                    cap: int) -> tuple[BilinearModel, int]:
    """The transmission view over (library, randomness) for fixed demands."""
    runner = _Runner(cfg)

    def run(w: int, z: int) -> tuple[int]:
        library = library_from_int(w, cfg.num_files, cfg.file_bits)
        tview, _ = runner.run_views(library, demands,
                                    runner.layout.unpack(z), False)
        return (tview,)

    models, runs = _recover_models(run, ("transmission",),
                                   cfg.num_files * cfg.file_bits,
                                   runner.layout.total_bits, cfg.seed, cap)
    return models[0], runs


def _joint_from_model(model: BilinearModel, cap: int
                      ) -> dict[tuple[int, int], Fraction]:
    """Given library value w the view is uniform on the coset
    base(w) + span(cols(w)); expand every coset, within the cap."""
    cosets = {w: _coset_canonical(base, cols)
              for w, base, cols in model.sections()}
    points = sum(1 << len(basis) for basis, _ in cosets.values())
    if points > cap:
        raise ResourceLimitError(
            f"coset expansion of {points} points exceeds the cap {cap}")
    lib_states = len(cosets)
    joint: dict[tuple[int, int], Fraction] = {}
    for w in range(lib_states):
        basis, base = cosets[w]
        p = Fraction(1, lib_states << len(basis))
        for point in _expand_span(basis):
            joint[(w, base ^ point)] = p
    return joint


def security_joint_affine(cfg: SchemeConfig, demands: Sequence[DemandVector],
                          cap: int = DEFAULT_STATE_CAP
                          ) -> dict[tuple[int, int], Fraction]:
    """The same joint distribution, from the recovered bilinear model.

    Exists for cross-checks and for the rare non-factorized case; the
    certified-zero path in check_security_exact never materializes it.
    """
    model, _ = _security_model(cfg, demands, cap)
    return _joint_from_model(model, cap)


def _security_certified(model: BilinearModel) -> bool:
    """Whether the view is provably independent of the library.

    Grow a fixed point S from {}: randomness column j settles once every
    cross[i][j] lies in S, and then inp[j] joins S.  Column j of the
    section at library value w is B_j(w) = inp[j] ^ XOR_i w_i cross[i][j],
    so a settled column has B_j(w) in inp[j] + S, and by induction S lies
    in span{B(w)} for every w.  When every column settles, span{B(w)}
    equals S for every w; when every lib[i] lies in S as well, base(w)
    lies in base(0) + S.  Every library value then gives the view the same
    coset, so the mutual information is zero.  False proves no leak.
    """
    pending = list(range(len(model.inp)))
    basis: tuple[int, ...] = ()
    while pending:
        settled = [j for j in pending
                   if not any(_reduce_point(row[j], basis)
                              for row in model.cross)]
        if not settled:
            return False
        basis = _rref_basis(basis + tuple(model.inp[j] for j in settled))
        pending = [j for j in pending if j not in settled]
    return not any(_reduce_point(a, basis) for a in model.lib)


def check_security_exact(cfg: SchemeConfig,
                         demands: Sequence[DemandVector] | None = None,
                         method: str = "auto",
                         cap: int = DEFAULT_STATE_CAP,
                         jobs: int = 1) -> SecurityCheckResult:
    """Exact I(library; transmission) for a fixed demand battery.

    The affine route answers from the recovered model: a zero certified
    by the fixed point, else the joint distribution expanded from every
    library value's coset, within the cap.
    """
    if jobs < 1:
        raise UsageError(f"jobs must be at least 1, got {jobs}")
    if demands is None:
        from .library import cycling_one_hot_demands
        demands = cycling_one_hot_demands(cfg.topo, cfg.num_files)
    coeffs = tuple(d.coeffs for d in demands)
    wbits, zbits = _security_bits(cfg)
    states = 1 << (wbits + zbits)
    chosen = _choose_method(method, states, _model_runs(wbits, zbits))
    if chosen == "enumerate":
        joint = security_joint_enumerated(cfg, demands, cap, jobs)
        mi = mutual_information(joint)
        return SecurityCheckResult(cfg, coeffs, "enumerate", states,
                                   mi.is_zero, mi.bits)
    model, runs = _security_model(cfg, demands, cap)
    if _security_certified(model):
        return SecurityCheckResult(cfg, coeffs, "affine", runs, True, 0.0)
    mi = mutual_information(_joint_from_model(model, cap))
    return SecurityCheckResult(cfg, coeffs, "affine", runs, mi.is_zero, mi.bits)


# ---- privacy ----

@dataclass(frozen=True)
class PrivacyCheckResult:
    cfg: SchemeConfig
    method: str
    states: int  # states enumerated, or engine runs spent by "affine"
    max_tv: Fraction
    per_observer: Mapping[CacheSet, Fraction]

    @property
    def certified_zero(self) -> bool:
        return self.max_tv == 0


def _privacy_bits(cfg: SchemeConfig) -> tuple[int, int, int]:
    """(library bits, randomness bits, demand bits) of the privacy
    question."""
    wbits, rbits = _security_bits(cfg)
    return wbits, rbits, cfg.num_files * cfg.topo.num_users


def _split_demand_value(cfg: SchemeConfig, dvalue: int, position: int
                        ) -> tuple[int, tuple[int, ...]]:
    """(own coefficients, other users' coefficients) of a packed tuple."""
    mask = (1 << cfg.num_files) - 1
    own = (dvalue >> (position * cfg.num_files)) & mask
    rest = tuple((dvalue >> (i * cfg.num_files)) & mask
                 for i in range(cfg.topo.num_users) if i != position)
    return own, rest


def check_privacy_exact(cfg: SchemeConfig,
                        observers: Sequence[CacheSet] | None = None,
                        method: str = "auto",
                        cap: int = DEFAULT_STATE_CAP) -> PrivacyCheckResult:
    """Exact worst-case TV distance between observer-view distributions.

    For every observer, every fixed library value and every fixed own
    demand, the distribution of the observer's view over the server's
    randomness is compared across all assignments of the other users'
    demands; any difference is a demand leak.  Equality for every fixed
    library is stronger than (and implies) independence in the mixture
    over libraries, since demands and library are drawn independently.

    A single-user topology has nothing to compare and reports zero.
    """
    users = cfg.topo.users()
    if observers is None:
        observers = users
    for g in observers:
        if g not in users:
            raise UsageError(f"{g} is not a user of this topology")
    wbits, rbits, dbits = _privacy_bits(cfg)
    states = 1 << (wbits + rbits + dbits)
    chosen = _choose_method(method, states, _model_runs(wbits, dbits + rbits))
    if cfg.topo.num_users == 1:
        return PrivacyCheckResult(cfg, chosen, 0, Fraction(0),
                                  {g: Fraction(0) for g in observers})
    if chosen == "enumerate":
        if states > cap:
            raise ResourceLimitError(
                f"enumeration of {states} states exceeds the cap {cap}")
        return _privacy_enumerated(cfg, observers, states)
    return _privacy_affine(cfg, observers, cap)


def _privacy_enumerated(cfg: SchemeConfig, observers: Sequence[CacheSet],
                        states: int) -> PrivacyCheckResult:
    runner = _Runner(cfg)
    users = cfg.topo.users()
    positions = {g: users.index(g) for g in observers}
    lib_states, rand_states, demand_states = (
        1 << bits for bits in _privacy_bits(cfg))
    # counts[g][(library, own demand, other demands)][view]
    counts: dict[CacheSet, dict[tuple, Counter]] = {g: {} for g in observers}
    for dvalue in range(demand_states):
        demands = demands_from_int(dvalue, cfg)
        split = {g: _split_demand_value(cfg, dvalue, positions[g])
                 for g in observers}
        for w in range(lib_states):
            library = library_from_int(w, cfg.num_files, cfg.file_bits)
            for rv in range(rand_states):
                _, oviews = runner.run_views(library, demands,
                                             runner.layout.unpack(rv), True)
                for g in observers:
                    own, rest = split[g]
                    key = (w, own, rest)
                    counts[g].setdefault(key, Counter())[oviews[g]] += 1
    per_observer: dict[CacheSet, Fraction] = {}
    for g in observers:
        worst = Fraction(0)
        contexts: dict[tuple[int, int], list[Counter]] = {}
        for (w, own, _rest), counter in sorted(counts[g].items()):
            contexts.setdefault((w, own), []).append(counter)
        for group in contexts.values():
            ref = {v: Fraction(n, rand_states) for v, n in group[0].items()}
            for other in group[1:]:
                tv = total_variation(ref, {v: Fraction(n, rand_states)
                                           for v, n in other.items()})
                worst = max(worst, tv)
        per_observer[g] = worst
    max_tv = max(per_observer.values()) if per_observer else Fraction(0)
    return PrivacyCheckResult(cfg, "enumerate", states, max_tv, per_observer)


def _privacy_affine(cfg: SchemeConfig, observers: Sequence[CacheSet],
                    cap: int) -> PrivacyCheckResult:
    """Rank test on one bilinear model per observer, over Z = D || R.

    For a fixed library and own demand, an observer's view is uniform on
    a coset of the span of the randomness columns, shifted by the other
    users' demand columns they select.  Two cosets of one subspace are
    equal or disjoint, so the TV is 0 when every other-user demand column
    lies in that span and 1 as soon as one falls outside it.
    """
    runner = _Runner(cfg)
    users = cfg.topo.users()
    n = cfg.num_files
    dbits = n * len(users)

    def run(w: int, z: int) -> tuple[int, ...]:
        library = library_from_int(w, n, cfg.file_bits)
        demands = demands_from_int(z & ((1 << dbits) - 1), cfg)
        _, oviews = runner.run_views(library, demands,
                                     runner.layout.unpack(z >> dbits), True)
        return tuple(oviews[g] for g in observers)

    labels = [f"observer {g}" for g in observers]
    models, runs = _recover_models(run, labels, n * cfg.file_bits,
                                   dbits + runner.layout.total_bits,
                                   cfg.seed, cap)
    per_observer: dict[CacheSet, Fraction] = {}
    for g, model in zip(observers, models):
        own = users.index(g)
        others = [j for j in range(dbits) if j // n != own]
        leaks = False
        for _, _, cols in model.sections():
            basis = _rref_basis(cols[dbits:])
            if any(_reduce_point(cols[j], basis) for j in others):
                leaks = True
                break
        per_observer[g] = Fraction(int(leaks))
    return PrivacyCheckResult(cfg, "affine", runs, max(per_observer.values()),
                              per_observer)


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
    Placement does not depend on demands, so it runs once per seed."""
    batteries = [tuple(b) for b in batteries]
    failures: list[CorrectnessFailure] = []
    decodes = 0
    for seed in seeds:
        run_cfg = replace(cfg, seed=seed)
        scheme = scheme_for(run_cfg)
        library = FileLibrary.random(derive_rng(seed, "library"),
                                     cfg.num_files, cfg.file_bits)
        randomness = ServerRandomness.draw(run_cfg, derive_rng(seed, "placement"))
        placement = scheme.place(library, randomness)
        for bi, battery in enumerate(batteries):
            transcript = scheme.deliver(placement.secrets, placement.table,
                                        battery)
            for demand in battery:
                member_caches = [placement.caches[c - 1] for c in demand.user]
                decoded = scheme.decode(demand.user, member_caches,
                                        transcript, demand)
                expected = linear_combination(demand, library)
                decodes += 1
                if decoded != expected:
                    failures.append(CorrectnessFailure(
                        seed, bi, demand.user,
                        expected.to_bytes().hex(), decoded.to_bytes().hex()))
    return CorrectnessReport(cfg, tuple(seeds), len(batteries), decodes,
                             tuple(failures))


# ---- structural key placement ----

@dataclass(frozen=True)
class SharePlacementReport:
    cfg: SchemeConfig
    keys_checked: int
    ok: bool
    problems: tuple[str, ...]


def check_share_placement_secrecy(cfg: SchemeConfig) -> SharePlacementReport:
    """Structural audit of where key material landed.

    For the share-splitting kinds: the shares of each user's superposed
    key sit in exactly that user's caches, every other user reaches at
    most r-1 of them (below the reconstruction threshold), and the full
    share set reconstructs the key the server recorded.  For the coded
    kind: the blocks of each payload key sit in exactly the caches its
    transmission index names, so users outside it reach fewer than the r
    blocks decoding needs.  For the whole-key kind: each key sits in
    exactly the named caches (exposure to intersecting users is by
    design).  The keyless kind has nothing to audit.
    """
    scheme = scheme_for(cfg)
    library = FileLibrary.random(derive_rng(cfg.seed, "library"),
                                 cfg.num_files, cfg.file_bits)
    placement = scheme.place(library)
    caches = placement.caches
    topo = cfg.topo
    r = topo.access_degree
    problems: list[str] = []
    checked = 0

    def holders(predicate) -> set[int]:
        return {c.index for c in caches if predicate(c)}

    if cfg.kind.masks_demands and not cfg.broadcast:
        field = cfg.key_field
        for (g, T), secret in placement.secrets.superposed_keys.items():
            checked += 1
            held = holders(lambda c: (g, T) in c.key_shares)
            if held != set(g):
                problems.append(f"shares of D[{g},{T}] live in {sorted(held)}")
            for other in topo.users():
                if other != g and len(set(other) & held) >= r:
                    problems.append(
                        f"user {other} reaches {r} shares of D[{g},{T}]")
            blocks = [caches[c - 1].key_shares[(g, T)] for c in g]
            rebuilt = reconstruct(share_set_from_blocks(blocks, field,
                                                        secret.length))
            if rebuilt != secret:
                problems.append(f"shares of D[{g},{T}] do not reconstruct it")
    elif cfg.kind.stores_keys_coded:
        code = cfg.key_code
        for S, key in placement.secrets.randomness.payload_keys.items():
            checked += 1
            held = holders(lambda c: S in c.coded_subkeys)
            if held != set(S):
                problems.append(f"blocks of V[{S}] live in {sorted(held)}")
            for g in topo.users():
                reach = len(set(g) & held)
                if not set(g) <= set(S) and reach >= code.dimension:
                    problems.append(f"outside user {g} reaches {reach} "
                                    f"blocks of V[{S}]")
    elif cfg.kind.stores_keys_whole:
        for S, key in placement.secrets.randomness.payload_keys.items():
            checked += 1
            held = holders(lambda c: S in c.whole_keys)
            if held != set(S):
                problems.append(f"copies of V[{S}] live in {sorted(held)}")
            for c in S:
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
            if r > C:
                continue
            for t in range(0, C - r + 1):
                triples.append((C, r, t))
    return tuple(triples)


def tiny_config(kind: SchemeKind, C: int, r: int, t: int,
                num_files: int = 2, seed: int = 0) -> SchemeConfig:
    """One-bit-subfile instance: F equals the subpacketization."""
    topo = TopologySpec(C, r, t)
    return SchemeConfig(topo, num_files, topo.num_subfile_indices, kind,
                        seed=seed)


def security_suite(method: str = "auto", cap: int = DEFAULT_STATE_CAP,
                   jobs: int = 1,
                   kinds: Sequence[SchemeKind] = (SchemeKind.S_LFR,
                                                  SchemeKind.IS_LFR,
                                                  SchemeKind.SP_LFR)
                   ) -> list[SecurityCheckResult]:
    """Exact security over the tiny sweep, then the keyless negative
    control (expected nonzero) on the smallest topology."""
    results = []
    for C, r, t in tiny_sweep_topologies():
        for kind in kinds:
            results.append(check_security_exact(
                tiny_config(kind, C, r, t), method=method, cap=cap, jobs=jobs))
    results.append(check_security_exact(
        tiny_config(SchemeKind.LFR, 3, 2, 1), method=method, cap=cap,
        jobs=jobs))
    return results


def privacy_suite(method: str = "auto", cap: int = DEFAULT_STATE_CAP
                  ) -> list[PrivacyCheckResult]:
    """Exact privacy on the C = 3 instances of the tiny sweep, then the
    cleartext negative control (expected nonzero)."""
    results = []
    for C, r, t in tiny_sweep_topologies():
        if C != 3:
            continue
        for kind in (SchemeKind.SP_LFR, SchemeKind.P_LFR):
            results.append(check_privacy_exact(
                tiny_config(kind, C, r, t), method=method, cap=cap))
    results.append(check_privacy_exact(
        tiny_config(SchemeKind.S_LFR, 3, 2, 1), method=method, cap=cap))
    return results
