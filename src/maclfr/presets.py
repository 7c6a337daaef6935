"""Worked configurations and figure parameterizations.

Three small parameterizations exercise every scheme kind end to end with
demand batteries whose decodes are known by hand; the figure presets are
the parameter sets the tradeoff curves are usually plotted at.  File
lengths are chosen so every sub-key and share pads to whole field
symbols, making the measured cache sizes match the closed forms exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .library import DemandVector
from .schemes import SchemeConfig, SchemeKind
from .topology import TopologySpec


@dataclass(frozen=True)
class WorkedConfiguration:
    """A topology plus a demand battery with hand-checkable decodes."""

    name: str
    topo: TopologySpec
    num_files: int
    file_bits: int
    demand_rows: tuple[str, ...]  # one row per user in lexicographic order

    def config(self, kind: SchemeKind, seed: int = 0) -> SchemeConfig:
        return SchemeConfig(self.topo, self.num_files, self.file_bits, kind,
                            seed=seed)

    def demands(self) -> tuple[DemandVector, ...]:
        return tuple(
            DemandVector.from_string(g, row, self.num_files)
            for g, row in zip(self.topo.users(), self.demand_rows))


def _adjacent_pair_rows(num_files: int) -> tuple[str, ...]:
    """User k demands file k+1 XOR file k+2; the last user file N alone."""
    rows = []
    for k in range(num_files - 1):
        row = ["0"] * num_files
        row[k] = "1"
        row[k + 1] = "1"
        rows.append("".join(row))
    rows.append("0" * (num_files - 1) + "1")
    return tuple(rows)


# Three caches in pairs, one-hot demands; every quantity fits on paper.
PAIRS_OF_THREE = WorkedConfiguration(
    name="pairs-of-three",
    topo=TopologySpec(3, 2, 1),
    num_files=3,
    file_bits=6,
    demand_rows=("100", "010", "001"),
)

# Five caches in triples, adjacent-pair combination demands.
TRIPLES_OF_FIVE = WorkedConfiguration(
    name="triples-of-five",
    topo=TopologySpec(5, 3, 2),
    num_files=10,
    file_bits=180,
    demand_rows=_adjacent_pair_rows(10),
)

# Five caches in pairs, a mixed bag of denser combination demands.
PAIRS_OF_FIVE = WorkedConfiguration(
    name="pairs-of-five",
    topo=TopologySpec(5, 2, 2),
    num_files=10,
    file_bits=60,
    demand_rows=(
        "1110000000",
        "1100000100",
        "1000000001",
        "1110000110",
        "1000001100",
        "1000101000",
        "1100010001",
        "1110011010",
        "0000000110",
        "1100000000",
    ),
)

WORKED_CONFIGURATIONS = {
    c.name: c for c in (PAIRS_OF_THREE, TRIPLES_OF_FIVE, PAIRS_OF_FIVE)
}


@dataclass(frozen=True)
class FigurePreset:
    num_caches: int
    access_degree: int
    num_files: int
    kinds: tuple[SchemeKind, ...]


# Keyed by the customary plot number; users = N in all of them.
FIGURE_PRESETS = {
    2: FigurePreset(15, 1, 15, tuple(SchemeKind)),
    3: FigurePreset(15, 2, 105, tuple(SchemeKind)),
    4: FigurePreset(15, 3, 455, tuple(SchemeKind)),
    5: FigurePreset(15, 2, 105, (SchemeKind.S_LFR, SchemeKind.IS_LFR)),
}
