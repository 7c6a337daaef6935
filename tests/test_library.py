"""Library, subpacketization, and demand-vector checks."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maclfr.bits import BitBlock
from maclfr.errors import DomainError, UsageError
from maclfr.library import (DemandVector, FileLibrary, cycling_one_hot_demands,
                            demands_by_user, linear_combination,
                            parse_demand_file, random_demands,
                            subfile_bit_length, subpacketize)
from maclfr.topology import TopologySpec


def library_of(num_files: int, file_bits: int, seed: int = 0) -> FileLibrary:
    return FileLibrary.random(random.Random(seed), num_files, file_bits)


@settings(deadline=None)
@given(st.integers(1, 5), st.integers(1, 40), st.integers(0, 3))
def test_subpacketize_reassembles(num_files, file_bits, t):
    topo = TopologySpec(4, 1, t)
    lib = library_of(num_files, file_bits)
    table = subpacketize(lib, topo)
    assert table.subfile_bits == subfile_bit_length(file_bits, topo)
    for i in range(1, num_files + 1):
        assert table.reassemble(i) == lib.file(i)
        for T in topo.subfile_indices():
            assert table.subfile(i, T).length == table.subfile_bits


def test_subfile_is_a_contiguous_slice():
    # File bits 0..2 belong to the first index, 3..5 to the second, etc.
    topo = TopologySpec(3, 2, 1)
    lib = FileLibrary((BitBlock(0b110100101, 9),))
    table = subpacketize(lib, topo)
    indices = topo.subfile_indices()
    assert [table.subfile(1, T).value for T in indices] == [0b101, 0b100, 0b110]


def test_subfile_table_rejects_an_image_wider_than_its_grid():
    topo = TopologySpec(3, 2, 1)
    table = subpacketize(FileLibrary((BitBlock(0b110100101, 9),)), topo)
    assert table.images == (0b110100101,)
    with pytest.raises(UsageError, match="wider than 9 bits"):
        replace(table, images=(1 << 9,))
    with pytest.raises(UsageError):
        replace(table, images=(-1,))


def test_subfile_lookups_refuse_what_the_table_does_not_hold():
    # A file index of 0 or below must not wrap round to a file from the
    # end, and a T of the wrong size, unsorted, repeated or out of range
    # must not land on some subfile.
    topo = TopologySpec(4, 1, 2)
    lib = library_of(3, 13, seed=2)
    table = subpacketize(lib, topo)
    for i in (-2, -1, 0, 4, 5):
        with pytest.raises(UsageError, match=rf"file index {i} outside \[1, 3\]"):
            table.reassemble(i)
        for T in topo.subfile_indices():
            with pytest.raises(UsageError, match=f"file index {i} outside"):
                table.subfile(i, T)
    for size in range(4):
        for T in itertools.product(range(-1, 7), repeat=size):
            if T in topo.subfile_indices():
                assert table.subfile(3, T).length == table.subfile_bits
                continue
            with pytest.raises(UsageError, match="is not a subfile index"):
                table.subfile(1, T)


def test_subpacketization_commutes_with_linear_combination():
    # XOR-of-files then slice equals slice then XOR-of-subfiles.
    topo = TopologySpec(4, 2, 1)
    lib = library_of(3, 10, seed=5)
    table = subpacketize(lib, topo)
    demand = DemandVector(topo.users()[0], 0b101, 3)
    whole = linear_combination(demand, lib)
    whole_table = subpacketize(FileLibrary((whole,)), topo)
    for T in topo.subfile_indices():
        sliced = BitBlock.zeros(table.subfile_bits)
        for i in demand.supported_files():
            sliced ^= table.subfile(i, T)
        assert sliced == whole_table.subfile(1, T)


def test_linear_combination_is_xor_of_supported_files():
    lib = library_of(4, 12, seed=9)
    g = (1, 2)
    assert linear_combination(DemandVector(g, 0, 4), lib) == BitBlock.zeros(12)
    assert linear_combination(DemandVector(g, 0b0001, 4), lib) == lib.file(1)
    assert (linear_combination(DemandVector(g, 0b1010, 4), lib)
            == lib.file(2) ^ lib.file(4))
    with pytest.raises(UsageError):
        linear_combination(DemandVector(g, 1, 3), lib)


def test_library_validation():
    with pytest.raises(DomainError):
        FileLibrary(())
    with pytest.raises(DomainError):
        FileLibrary((BitBlock(0, 0),))
    with pytest.raises(DomainError):
        FileLibrary((BitBlock(0, 3), BitBlock(0, 4)))
    with pytest.raises(UsageError):
        library_of(3, 11, seed=2).file(0)


def test_demand_vector_string_round_trip():
    d = DemandVector.from_string((1, 3), "0110", 4)
    assert d.coeffs == 0b0110
    assert d.supported_files() == (2, 3)
    assert DemandVector.from_string((1, 3), "0010", 4) == DemandVector.one_hot(
        (1, 3), 3, 4)
    with pytest.raises(UsageError):
        DemandVector.from_string((1,), "012", 3)
    with pytest.raises(UsageError):
        DemandVector.one_hot((1,), 5, 4)
    with pytest.raises(DomainError):
        DemandVector((1,), 0b100, 2)


def test_parse_demand_file_maps_lines_to_lex_users():
    topo = TopologySpec(3, 2, 1)
    text = "100\n010\n\n001\n"
    demands = parse_demand_file(text, topo, 3)
    assert [d.user for d in demands] == [(1, 2), (1, 3), (2, 3)]
    assert [d.supported_files() for d in demands] == [(1,), (2,), (3,)]
    with pytest.raises(UsageError):
        parse_demand_file("100\n010\n", topo, 3)


def test_demand_batteries():
    topo = TopologySpec(3, 2, 1)
    cycling = cycling_one_hot_demands(topo, 2)
    assert [d.supported_files() for d in cycling] == [(1,), (2,), (1,)]
    rnd = random_demands(topo, 2, random.Random(3))
    assert rnd == random_demands(topo, 2, random.Random(3))
    assert demands_by_user(rnd)[(1, 2)] == rnd[0]
    with pytest.raises(UsageError):
        demands_by_user(rnd + (rnd[0],))
