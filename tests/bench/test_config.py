"""Benchmark configuration (Table I) tests."""

import pytest

from repro.bench.config import BenchConfig, Method
from repro.util.errors import BenchmarkError


class TestMethod:
    def test_table_i_codes(self):
        assert Method.parse(0) is Method.OCIO
        assert Method.parse(1) is Method.TCIO
        assert Method.parse(2) is Method.MPIIO

    def test_string_names(self):
        assert Method.parse("tcio") is Method.TCIO
        assert Method.parse("MPI-IO") is Method.MPIIO

    def test_unknown_rejected(self):
        with pytest.raises(BenchmarkError):
            Method.parse("hdf5")


class TestBenchConfig:
    def test_defaults_match_section_vb(self):
        cfg = BenchConfig()
        assert cfg.num_arrays == 2
        assert cfg.type_codes == "i,d"
        assert cfg.element_bytes == 12  # int + double
        assert cfg.block_size == 12

    def test_size_access_scales_block(self):
        cfg = BenchConfig(len_array=8, size_access=4)
        assert cfg.block_size == 48
        assert cfg.accesses_per_process == 4

    def test_totals(self):
        cfg = BenchConfig(len_array=100, nprocs=8)
        assert cfg.bytes_per_process == 1200
        assert cfg.total_bytes == 9600

    def test_type_count_must_match(self):
        with pytest.raises(BenchmarkError):
            BenchConfig(num_arrays=3, type_codes="i,d")

    def test_len_must_divide_by_access(self):
        with pytest.raises(BenchmarkError):
            BenchConfig(len_array=10, size_access=3)

    def test_mixed_type_sizes(self):
        cfg = BenchConfig(num_arrays=3, type_codes="c,s,f", len_array=4)
        assert cfg.element_bytes == 1 + 2 + 4
