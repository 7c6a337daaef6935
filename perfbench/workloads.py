"""The benchmark's workloads, their output checks and the measuring loop.

Each workload is a list of operations.  An operation's ``run`` calls
maclfr's public functions the way the ``maclfr`` command does, minus file
writes; that call is the timed region.  Its ``check`` then compares the
outputs, untimed, against values the benchmark computes itself or against
properties the method must have, and returns the problems it found.

Inputs come from the seed alone, and every round of a run repeats the
same operations on the same inputs, so a round's work is identical
across rounds and across runs with one seed.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import isclose, log2
from typing import Callable

from maclfr import analysis, schemes, transcript, verify
from maclfr.library import DemandVector
from maclfr.schemes import SchemeConfig, SchemeKind
from maclfr.topology import TopologySpec

from hostspeed import HostSpeed
from tracer import Tracer

# The paper's claims: content security for the keyed kinds, demand
# privacy for the masking kinds.  The other kinds are negative controls.
SECURE_KINDS = (SchemeKind.SP_LFR, SchemeKind.S_LFR, SchemeKind.IS_LFR)
PRIVATE_KINDS = (SchemeKind.SP_LFR, SchemeKind.P_LFR)

ENGINE_SHAPE = (10, 3, 3, 20, 1920)  # C, r, t, N, F

# Left out of the security sweep: alone it runs for about 62 s, longer than a
# whole run may take (README.md, "Inputs").
SECURITY_LEFT_OUT = ((SchemeKind.SP_LFR, 4, 2, 2),)


@dataclass(frozen=True)
class Operation:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


# ---- engine-c10 ----

def xor_combination(file_values, coeffs: int) -> int:
    """The demanded combination: XOR of the files whose coefficient is 1."""
    acc = 0
    for i, value in enumerate(file_values):
        if (coeffs >> i) & 1:
            acc ^= value
    return acc


def decode_problems(result, expected: dict) -> list[str]:
    problems = []
    if set(result.decoded) != set(expected):
        problems.append(f"decoded {len(result.decoded)} users, "
                        f"expected {len(expected)}")
    for user, value in expected.items():
        block = result.decoded.get(user)
        if block is not None and (block.value, block.length) != (
                value, result.cfg.file_bits):
            problems.append(f"user {user} decoded a wrong block")
    return problems


def closed_form_problems(result, point) -> list[str]:
    problems = []
    if result.placement.memory != point.memory:
        problems.append(f"memory {result.placement.memory} != closed form "
                        f"{point.memory}")
    if result.transcript.rate != point.rate:
        problems.append(f"rate {result.transcript.rate} != closed form "
                        f"{point.rate}")
    return problems


def roundtrip_problems(data: bytes, expected: bytes) -> list[str]:
    art = transcript.artifact_from_bytes(data)
    again = transcript.artifact_to_bytes(art.cfg, art.caches, art.transcript)
    return [] if again == expected else ["artifact does not round-trip"]


def engine_op(cfg: SchemeConfig, demands: tuple[DemandVector, ...]) -> Operation:
    """``maclfr simulate`` without the file writes, checked three ways."""
    def run():
        result = schemes.simulate(cfg, demands=demands)
        return (result, transcript.simulation_to_bytes(result),
                transcript.simulation_to_json(result))

    def check(out) -> list[str]:
        result, data, _ = out
        files = [f.value for f in result.library.files]
        expected = {d.user: xor_combination(files, d.coeffs) for d in demands}
        topo = cfg.topo
        point = analysis.point(cfg.kind, topo.num_caches, topo.access_degree,
                               topo.replication, cfg.num_files, cfg.file_bits)
        return (decode_problems(result, expected)
                + closed_form_problems(result, point)
                + roundtrip_problems(data, data))

    return Operation(cfg.kind.value, run, check)


def engine_ops(seed: int, shape=ENGINE_SHAPE) -> list[Operation]:
    """One round of each kind; each user demands a random combination."""
    C, r, t, N, F = shape
    topo = TopologySpec(C, r, t)
    rng = random.Random(f"perfbench:engine:{seed}")
    ops = []
    for kind in SchemeKind:
        demands = tuple(DemandVector(g, rng.getrandbits(N), N)
                        for g in topo.users())
        ops.append(engine_op(SchemeConfig(topo, N, F, kind, seed=seed), demands))
    return ops


# ---- security sweep ----

def keyless_mi_bits(C: int, r: int, t: int, N: int, F: int,
                    demand_coeffs) -> float:
    """I(library; transmission) of the keyless scheme, by enumeration.

    Without keys the transmission is a linear function of the library, so
    over a uniform library it is uniform on its image: the mutual
    information is log2 of the number of distinct transmissions.
    """
    indices = list(combinations(range(1, C + 1), t))
    rank = {T: k for k, T in enumerate(indices)}
    sub_bits = -(-F // len(indices))
    sub_mask = (1 << sub_bits) - 1
    users = list(combinations(range(1, C + 1), r))
    coeffs_of = dict(zip(users, demand_coeffs))
    transmissions = set()
    for w in range(1 << (N * F)):
        files = [(w >> (i * F)) & ((1 << F) - 1) for i in range(N)]
        view = []
        for S in combinations(range(1, C + 1), t + r):
            payload = 0
            for g in combinations(S, r):
                rest = tuple(c for c in S if c not in g)
                combo = xor_combination(files, coeffs_of[g])
                payload ^= (combo >> (rank[rest] * sub_bits)) & sub_mask
            view.append(payload)
        transmissions.add(tuple(view))
    return log2(len(transmissions))


def security_problems(res, claim_zero: bool, expected_mi: float | None
                      ) -> list[str]:
    problems = []
    if res.certified_zero != claim_zero:
        problems.append(f"certified_zero is {res.certified_zero}, "
                        f"the claim is {claim_zero}")
    if expected_mi is not None and not isclose(res.mi_bits, expected_mi,
                                               abs_tol=1e-9):
        problems.append(f"MI {res.mi_bits} bits, enumeration gives "
                        f"{expected_mi}")
    return problems


def security_op(kind: SchemeKind, C: int, r: int, t: int, seed: int
                ) -> Operation:
    """One instance of ``maclfr verify --suite security``."""
    cfg = verify.tiny_config(kind, C, r, t, seed=seed)

    def run():
        return verify.check_security_exact(cfg, method="auto",
                                           cap=verify.DEFAULT_STATE_CAP, jobs=1)

    def check(res) -> list[str]:
        expected_mi = None
        if kind not in SECURE_KINDS:
            expected_mi = keyless_mi_bits(C, r, t, cfg.num_files,
                                          cfg.file_bits, res.demands)
        return security_problems(res, kind in SECURE_KINDS, expected_mi)

    return Operation(f"{kind.value} C={C} r={r} t={t}", run, check)


def security_ops(seed: int) -> list[Operation]:
    ops = [security_op(kind, C, r, t, seed)
           for C, r, t in verify.tiny_sweep_topologies()
           for kind in (SchemeKind.S_LFR, SchemeKind.IS_LFR, SchemeKind.SP_LFR)
           if (kind, C, r, t) not in SECURITY_LEFT_OUT]
    ops.append(security_op(SchemeKind.LFR, 3, 2, 1, seed))
    return ops


# ---- privacy sweep ----

def privacy_problems(res, expected_tv: Fraction) -> list[str]:
    problems = []
    if res.max_tv != expected_tv:
        problems.append(f"max TV {res.max_tv}, expected {expected_tv}")
    # Each conditional view is uniform on a coset of one subspace, and two
    # cosets are equal or disjoint: every distance is exactly 0 or 1.
    odd = {g: tv for g, tv in res.per_observer.items() if tv not in (0, 1)}
    if odd:
        problems.append(f"TV neither 0 nor 1 for {odd}")
    return problems


def privacy_op(kind: SchemeKind, C: int, r: int, t: int, seed: int
               ) -> Operation:
    """One instance of ``maclfr verify --suite privacy``."""
    cfg = verify.tiny_config(kind, C, r, t, seed=seed)

    def run():
        return verify.check_privacy_exact(cfg, method="auto",
                                          cap=verify.DEFAULT_STATE_CAP)

    expected = Fraction(0 if kind in PRIVATE_KINDS else 1)
    return Operation(f"{kind.value} C={C} r={r} t={t}", run,
                     lambda res: privacy_problems(res, expected))


def privacy_ops(seed: int) -> list[Operation]:
    ops = [privacy_op(kind, C, r, t, seed)
           for C, r, t in verify.tiny_sweep_topologies() if C == 3
           for kind in (SchemeKind.SP_LFR, SchemeKind.P_LFR)]
    ops.append(privacy_op(SchemeKind.S_LFR, 3, 2, 1, seed))
    return ops


WORKLOADS = {
    "engine-c10": engine_ops,
    "security-sweep": security_ops,
    "privacy-sweep": privacy_ops,
}


# ---- measuring ----

@dataclass
class Tally:
    """Everything one run measured."""

    intervals: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    traced_intervals: dict[str, list[tuple[int, int]]] = field(
        default_factory=dict)
    layers: list[dict[str, float]] = field(default_factory=list)
    spans: dict[str, dict[str, float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    speed: HostSpeed | None = None

    @property
    def correct(self) -> bool:
        """Whether every operation ran and passed its checks.  A failed
        operation adds no time, so its run's ``pass_s`` would read low."""
        return self.failed == 0

    def pass_s(self, traced: bool = False, wall: bool = False) -> float:
        """Sum over the operations of each one's median time in the run,
        in reference seconds unless `wall` asks for raw wall time."""
        def seconds(start: int, end: int) -> float:
            if wall or self.speed is None:
                return (end - start) / 1e9
            return self.speed.interval_s(start, end)

        intervals = self.traced_intervals if traced else self.intervals
        return sum(statistics.median(seconds(*iv) for iv in ivs)
                   for ivs in intervals.values())


def attempt(op: Operation, tally: Tally, tracer: Tracer | None = None) -> None:
    """Run one operation, timed, then check its outputs, untimed.

    An exception or a wrong output fails the operation without stopping
    the run.  Only an operation that passed its checks adds its time.
    """
    tally.attempted += 1
    try:
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter_ns()
            out = op.run()
            end = time.perf_counter_ns()
        finally:
            if tracer is not None:
                tracer.uninstall()
    except Exception as exc:  # a failed operation must not end the run
        tally.failed += 1
        tally.problems.append(f"{op.name}: raised {exc!r}")
        return
    try:
        problems = op.check(out)
    except Exception as exc:  # an output the checks cannot read is wrong
        problems = [f"check raised {exc!r}"]
    if problems:
        tally.failed += 1
        tally.problems.extend(f"{op.name}: {p}" for p in problems)
        return
    intervals = tally.intervals if tracer is None else tally.traced_intervals
    intervals.setdefault(op.name, []).append((start, end))


def measure(ops: list[Operation], seconds: float, traced: bool = False
            ) -> Tally:
    """Repeat whole rounds of the operations until `seconds` have passed.

    A round attempts every operation once, in order, and the last round
    may end after the window.  The host's speed is sampled throughout.
    In a traced run a round is a pair: one untraced and one traced pass,
    in alternating order, and the per-layer figures of each traced pass
    are kept.
    """
    tally = Tally()
    tracer = Tracer() if traced else None
    tally.speed = HostSpeed()
    with tally.speed:
        start = time.perf_counter()
        while True:
            if tracer is None:
                for op in ops:
                    attempt(op, tally)
            else:
                traced_first = len(tally.layers) % 2 == 1
                for with_trace in (traced_first, not traced_first):
                    before = tracer.snapshot()
                    for op in ops:
                        attempt(op, tally, tracer if with_trace else None)
                    if with_trace:
                        after = tracer.snapshot()
                        tally.layers.append({k: after[k] - before[k]
                                             for k in after})
            if time.perf_counter() - start >= seconds:
                break
    if tracer is not None:
        tally.spans = {name: {"calls": tracer.calls[name],
                              "self_s": tracer.self_ns[name] / 1e9,
                              "child_s": tracer.child_ns[name] / 1e9}
                       for name in sorted(tracer.calls)}
        if tracer.missing:
            tally.problems.append(
                f"trace hooks not found: {sorted(tracer.missing)}")
    return tally
