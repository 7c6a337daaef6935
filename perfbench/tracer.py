"""Per-layer spans and counters around maclfr's layer boundaries.

The tracer wraps each layer function on the name its caller looks it up
by (``maclfr.schemes.split`` is what ``Scheme.place`` calls), so nothing in
the program changes.  A span records calls and self time: its duration
minus the time of the spans nested inside it.  A counter records calls
only, which keeps its cost low on the hottest functions.

``install`` puts every wrapper in place and ``uninstall`` restores the
originals, so a traced process can alternate traced and untraced work.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# (layer name, "module" or "module:Class", attribute)
SPANS = (
    ("schemes.draw", "maclfr.schemes:ServerRandomness", "draw"),
    ("schemes.place", "maclfr.schemes:Scheme", "place"),
    ("library.subpacketize", "maclfr.schemes", "subpacketize"),
    ("library.subpacketize", "maclfr.verify", "subpacketize"),
    ("schemes.deliver", "maclfr.schemes:Scheme", "deliver"),
    ("schemes.decode", "maclfr.schemes:Scheme", "decode"),
    ("schemes.unpack", "maclfr.schemes:RandomnessLayout", "unpack"),
    ("shamir.split", "maclfr.schemes", "split"),
    ("shamir.reconstruct", "maclfr.schemes", "reconstruct"),
    ("mds.encode", "maclfr.schemes", "encode_key"),
    ("mds.decode", "maclfr.schemes", "decode_key"),
    ("transcript.to_bytes", "maclfr.transcript", "simulation_to_bytes"),
    ("transcript.to_json", "maclfr.transcript", "simulation_to_json"),
    ("verify.views", "maclfr.verify:ViewExtractor", "transmission"),
    ("verify.views", "maclfr.verify:ViewExtractor", "observer"),
    ("verify.check", "maclfr.verify", "check_security_exact"),
    ("verify.check", "maclfr.verify", "check_privacy_exact"),
)

COUNTERS = (
    ("gf.muls", "maclfr.gf:BinaryField", "mul"),
    ("mds.codes_built", "maclfr.schemes", "build_code"),
    ("bits.blocks", "maclfr.bits:BitBlock", "__post_init__"),
    ("bits.xors", "maclfr.bits:BitBlock", "__xor__"),
)

# An engine run inside an oracle check is one placement.
ENGINE_RUN_SPAN = "schemes.place"
CHECK_SPAN = "verify.check"


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Accumulates self time, child time and calls per span, and counts."""

    def __init__(self) -> None:
        self.self_ns: Counter = Counter()
        self.child_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self._stack = [0]  # child-time accumulator of each open span
        self._originals: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        stack, self_ns, child_ns, calls = (self._stack, self.self_ns,
                                           self.child_ns, self.calls)
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                stack[-1] += duration
                self_ns[name] += duration - child
                child_ns[name] += child
                calls[name] += 1

        if name != CHECK_SPAN:
            return span
        counts = self.counts

        def check(*args, **kwargs):
            runs_before = calls[ENGINE_RUN_SPAN]
            try:
                return span(*args, **kwargs)
            finally:
                runs = calls[ENGINE_RUN_SPAN] - runs_before
                counts["verify.engine_runs"] += runs

        return check

    def _counter(self, name: str, fn):
        counts = self.counts

        def counter(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counter

    def install(self) -> None:
        if self._originals:
            return
        for hooks, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for name, path, attr in hooks:
                owner = _owner(path)
                raw = vars(owner).get(attr)
                if raw is None:
                    self.missing.add(f"{path}.{attr}")
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(make(name, raw.__func__))
                else:
                    wrapped = make(name, raw)
                self._originals.append((owner, attr, raw))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)

    def snapshot(self) -> dict[str, float]:
        """Cumulative per-layer figures so far, in the benchmark's units."""
        snap = {f"{name}_s": self.self_ns[name] / 1e9
                for name, _, _ in SPANS if not name.startswith("verify.")}
        snap.update({name: self.counts[name] for name, _, _ in COUNTERS})
        snap["verify.engine_runs"] = self.counts["verify.engine_runs"]
        snap["verify.engine_s"] = self.child_ns[CHECK_SPAN] / 1e9
        snap["verify.self_s"] = self.self_ns[CHECK_SPAN] / 1e9
        return snap
