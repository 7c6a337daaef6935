"""Memory-rate tradeoffs as exact rationals.

Every scheme kind realizes the corner points

    M(t) = data(t) + keys(t),   R(t) = binom(C, t+r) / binom(C, t)

for t in [0, C - r], where data(t) = t N / C and keys(t) depends on how the
payload keys are stored (nothing for lfr, whole for s-lfr, coded for
is-lfr, threshold shares for sp-lfr and p-lfr).  Points in between come
from memory sharing, i.e. the lower convex envelope, and the full-cache
point (N, 0) always belongs to the set; p-lfr adds the cache-less
broadcast point (0, N).

Two evaluation modes: the ideal mode (file_bits None) assumes the file
size divides everything and returns the closed forms above; the
F-dependent mode keeps the exact ceilings of an actual placement at that
file size, so its values equal the measured placement at every F: a
subfile of ceil(F / binom(C, t)) bits, a share block padded to whole
symbols, and an is-lfr coded block of mds.coded_block_bit_length bits.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import DomainError
from .gf import exponent_for_share_count
from .mds import field_exponent
from .schemes import SchemeKind
from .topology import TopologySpec

FULL_CACHE_TAG = "full-cache"
BROADCAST_TAG = "broadcast"


@dataclass(frozen=True)
class MemoryRatePoint:
    memory: Fraction
    rate: Fraction
    t: int | None
    tag: str


@dataclass(frozen=True)
class TradeoffCurve:
    kind: SchemeKind
    num_caches: int
    access_degree: int
    num_files: int
    file_bits: int | None
    points: tuple[MemoryRatePoint, ...]
    envelope: tuple[MemoryRatePoint, ...]


def _piece(file_bits: int | None, pieces: int) -> Fraction:
    """One of `pieces` equal cuts of a file, as a fraction of the file:
    1/pieces in the ideal mode, ceil(F / pieces) / F at file size F."""
    if file_bits is None:
        return Fraction(1, pieces)
    return Fraction(-(-file_bits // pieces), file_bits)


def _key_memory(kind: SchemeKind, topo: TopologySpec, file_bits: int | None
                ) -> Fraction:
    C, r, t = topo.num_caches, topo.access_degree, topo.replication
    b = comb(C, t)
    if kind is SchemeKind.LFR:
        return Fraction(0)
    if kind in (SchemeKind.SP_LFR, SchemeKind.P_LFR):
        l = exponent_for_share_count(r)
        shares = comb(C - r, t) * comb(C - 1, r - 1)
        return shares * l * _piece(file_bits, l * b)
    keys = comb(C - 1, t + r - 1)
    if kind is SchemeKind.S_LFR:
        return keys * _piece(file_bits, b)
    # is-lfr: a coded 1/r of each key, at F a block of whole m-bit symbols,
    # m the exponent of the code's field.
    m = field_exponent(t + r, r)
    return keys * m * _piece(file_bits, m * r * b)


def point(kind: SchemeKind, num_caches: int, access_degree: int,
          replication: int, num_files: int,
          file_bits: int | None = None) -> MemoryRatePoint:
    """The (M, R) corner realized at one replication parameter t."""
    topo = TopologySpec(num_caches, access_degree, replication)
    if num_files < 1:
        raise DomainError(f"need at least one file, got {num_files}")
    if file_bits is not None and file_bits < 1:
        raise DomainError("file_bits must be positive")
    C, t = num_caches, replication
    b = comb(C, t)
    # A cache belongs to binom(C-1, t-1) of the b subfile indices and stores
    # one piece of every file for each of them.
    data = (num_files * comb(C - 1, t - 1) * _piece(file_bits, b) if t
            else Fraction(0))
    rate = Fraction(comb(C, t + access_degree), b)
    return MemoryRatePoint(data + _key_memory(kind, topo, file_bits), rate,
                           t, str(t))


def full_cache_point(num_files: int) -> MemoryRatePoint:
    return MemoryRatePoint(Fraction(num_files), Fraction(0), None, FULL_CACHE_TAG)


def broadcast_point(num_files: int) -> MemoryRatePoint:
    return MemoryRatePoint(Fraction(0), Fraction(num_files), None, BROADCAST_TAG)


def lower_convex_envelope(points: "list[MemoryRatePoint] | tuple[MemoryRatePoint, ...]"
                          ) -> tuple[MemoryRatePoint, ...]:
    """Vertices of the lower convex envelope, truncated at the first
    zero-rate vertex (memory beyond that buys nothing)."""
    if not points:
        return ()
    best: dict[Fraction, MemoryRatePoint] = {}
    for p in points:
        cur = best.get(p.memory)
        if cur is None or p.rate < cur.rate:
            best[p.memory] = p
    ordered = [best[m] for m in sorted(best)]
    hull: list[MemoryRatePoint] = []
    for p in ordered:
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = ((a.memory - o.memory) * (p.rate - o.rate)
                     - (a.rate - o.rate) * (p.memory - o.memory))
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    out = []
    for p in hull:
        out.append(p)
        if p.rate == 0:
            break
    return tuple(out)


def curve(kind: SchemeKind, num_caches: int, access_degree: int,
          num_files: int, file_bits: int | None = None) -> TradeoffCurve:
    TopologySpec(num_caches, access_degree, 0)  # parameter validation
    points = [point(kind, num_caches, access_degree, t, num_files, file_bits)
              for t in range(num_caches - access_degree + 1)]
    points.append(full_cache_point(num_files))
    if kind is SchemeKind.P_LFR:
        points.append(broadcast_point(num_files))
    return TradeoffCurve(kind, num_caches, access_degree, num_files, file_bits,
                         tuple(points), lower_convex_envelope(points))


def security_memory_bound(num_caches: int, access_degree: int) -> Fraction:
    """Minimum per-cache memory of any content-secure placement."""
    TopologySpec(num_caches, access_degree, 0)  # parameter validation
    return Fraction(comb(num_caches, access_degree), num_caches)


@dataclass(frozen=True)
class GapResult:
    kind: SchemeKind
    memory: Fraction
    scheme_rate: Fraction
    reference_rate: Fraction
    ratio: Fraction | None
    threshold: int           # smallest library size at which the bound is claimed
    bound_asserted: bool     # num_files reached the threshold
    bound_holds: bool | None


def optimality_gap(kind: SchemeKind, num_caches: int, access_degree: int,
                   num_files: int) -> GapResult:
    """Rate ratio against the memory-sharing reference at the scheme's
    cheapest secure point.

    The reference interpolates between serving everything by broadcast at
    zero memory, rate K, and the keyless t = 1 point (N / C,
    binom(C, r+1) / C).  sp-lfr sits at M = r K / C and is-lfr at
    M = K / C (both at t = 0, rate K); for libraries of at least 2 K s
    files (s = r and 1 respectively) the ratio never exceeds 2.
    """
    if kind not in (SchemeKind.SP_LFR, SchemeKind.IS_LFR):
        raise DomainError(f"gap statement covers sp-lfr and is-lfr, "
                          f"not {kind.value}")
    C, r, N = num_caches, access_degree, num_files
    TopologySpec(C, r, 0)
    K = comb(C, r)
    s = r if kind is SchemeKind.SP_LFR else 1
    memory = Fraction(s * K, C)
    scheme_rate = Fraction(K)
    reference = K - Fraction(K * K * s, N) * (1 - Fraction(C - r, C * (r + 1)))
    ratio = scheme_rate / reference if reference > 0 else None
    threshold = 2 * K * s
    asserted = N >= threshold
    holds = (ratio is not None and ratio <= 2) if asserted else None
    return GapResult(kind, memory, scheme_rate, reference, ratio,
                     threshold, asserted, holds)


# ---- emission ----

def format_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def write_curves_csv(curves: "list[TradeoffCurve] | tuple[TradeoffCurve, ...]",
                     stream: io.TextIOBase) -> None:
    """One row per corner point: scheme,C,r,t,M_num,M_den,R_num,R_den."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["scheme", "C", "r", "t", "M_num", "M_den", "R_num", "R_den"])
    for cv in curves:
        for p in cv.points:
            writer.writerow([cv.kind.value, cv.num_caches, cv.access_degree,
                             p.tag, p.memory.numerator, p.memory.denominator,
                             p.rate.numerator, p.rate.denominator])


def _point_json(p: MemoryRatePoint) -> dict:
    return {"t": p.tag, "M": format_fraction(p.memory),
            "R": format_fraction(p.rate)}


def curves_to_json(curves: "list[TradeoffCurve] | tuple[TradeoffCurve, ...]"
                   ) -> dict:
    return {"curves": [
        {"scheme": cv.kind.value,
         "C": cv.num_caches,
         "r": cv.access_degree,
         "N": cv.num_files,
         "F": cv.file_bits,
         "points": [_point_json(p) for p in cv.points],
         "envelope": [_point_json(p) for p in cv.envelope]}
        for cv in curves]}
