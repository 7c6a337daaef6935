"""Linear-function retrieval over combinatorial multi-access caches.

Users connect to every size-r subset of C caches.  The schemes here place
coded subfiles (and, for the keyed variants, secret-shared or MDS-coded
one-time pads) during a demand-oblivious placement phase, then serve an
arbitrary linear combination of the library per user with one broadcast.

The package splits into arithmetic (``gf``, ``bits``), combinatorics
(``topology``), secret sharing (``shamir``, ``mds``), the schemes
themselves (``schemes``), closed-form tradeoffs (``analysis``), exact
verification oracles (``verify``), serialization (``transcript``) and a
command line (``cli``).
"""

from .analysis import (GapResult, MemoryRatePoint, TradeoffCurve, curve,
                       lower_convex_envelope, optimality_gap, point,
                       security_memory_bound)
from .bits import BitBlock
from .errors import (DomainError, IntegrityError, MaclfrError,
                     ResourceLimitError, UsageError)
from .gf import BinaryField, binary_field
from .library import (DemandVector, FileLibrary, SubfileTable,
                      linear_combination, parse_demand_file, random_demands,
                      subpacketize)
from .mds import MdsCode, build_code, decode_key, encode_key
from .schemes import (CacheContent, DeliveryTranscript, PlacementResult,
                      RandomnessLayout, Scheme, SchemeConfig, SchemeKind,
                      ServerRandomness, SimulationResult, derive_rng,
                      simulate)
from .shamir import ShareSet, leakage_check, reconstruct, split
from .topology import TopologySpec
from .transcript import (SimulationArtifact, artifact_from_bytes,
                         artifact_to_bytes, artifact_to_json,
                         simulation_to_bytes, simulation_to_json)
from .verify import (CorrectnessReport, PrivacyCheckResult,
                     SecurityCheckResult, SharePlacementReport,
                     check_correctness, check_privacy_exact,
                     check_security_exact, check_share_placement_secrecy)

__version__ = "0.1.0"

__all__ = [
    "BitBlock", "CacheContent", "CorrectnessReport", "DeliveryTranscript",
    "BinaryField", "DemandVector", "DomainError",
    "FileLibrary", "GapResult", "binary_field",
    "IntegrityError", "MaclfrError", "MdsCode", "MemoryRatePoint",
    "PlacementResult", "PrivacyCheckResult",
    "RandomnessLayout", "ResourceLimitError", "Scheme", "SchemeConfig",
    "SchemeKind", "SecurityCheckResult", "ServerRandomness",
    "ShareSet", "SharePlacementReport", "SimulationArtifact",
    "SimulationResult", "SubfileTable", "TopologySpec", "TradeoffCurve",
    "UsageError", "artifact_from_bytes", "artifact_to_bytes",
    "artifact_to_json", "build_code", "check_correctness",
    "check_privacy_exact", "check_security_exact",
    "check_share_placement_secrecy", "curve", "decode_key", "derive_rng",
    "encode_key", "leakage_check",
    "linear_combination", "lower_convex_envelope",
    "optimality_gap", "parse_demand_file", "point", "random_demands",
    "reconstruct", "security_memory_bound", "simulate",
    "simulation_to_bytes", "simulation_to_json", "split", "subpacketize",
]
