"""Host memory follows the simulated allocator.

A finished job is freed by reference counting alone (no cyclic garbage
collection needed), and the synthetic benchmark holds each file byte a
bounded number of times: one job's buffers are gone before the next job
starts, and verification builds no second copy of the file.
"""

import gc
import tracemalloc
import weakref

import pytest

from repro.bench import BenchConfig, Method, run_benchmark
from repro.ioserver import generate_trace, run_ioserver
from repro.simmpi.mpi import Launcher


@pytest.fixture
def worlds(monkeypatch):
    """Weak references to every MpiWorld launched during the test."""
    refs = []
    add = Launcher.add

    def tracked(self, *args, **kwargs):
        world = add(self, *args, **kwargs)
        refs.append(weakref.ref(world))
        return world

    monkeypatch.setattr(Launcher, "add", tracked)
    return refs


@pytest.fixture
def no_gc():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class TestAFinishedJobIsFreed:
    @pytest.mark.parametrize("method", [Method.TCIO, Method.OCIO, Method.MPIIO])
    def test_benchmark(self, method, worlds, no_gc):
        result = run_benchmark(BenchConfig(method=method, nprocs=4, len_array=64, size_access=8))
        assert not result.failed
        del result
        assert len(worlds) == 2  # the write job and the read job
        assert [ref() for ref in worlds] == [None, None]

    def test_ioserver(self, worlds, no_gc):
        trace = generate_trace(5, 6, epochs=2, reads_per_client=2)
        result = run_ioserver(trace, nranks=6, cores_per_node=3)
        assert result.aborted is None
        assert worlds[0]() is result.mpi.world
        del result
        assert worlds[0]() is None


class TestBenchmarkMemoryGuard:
    def test_tcio_peak_is_a_few_file_sizes(self):
        # 32 ranks, a 6 MiB file. The read job needs about 3.6 file sizes
        # at its peak: its level 2, the destination arrays, the file and
        # level 1. Keeping the write job's level 2 and file alive into the
        # read job, or building a reference copy to verify against, takes
        # it past 7.
        cfg = BenchConfig(method=Method.TCIO, nprocs=32, len_array=16384, size_access=512)
        assert cfg.total_bytes >= 4 << 20
        tracemalloc.start()
        try:
            result = run_benchmark(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not result.failed
        assert peak <= 5 * cfg.total_bytes, f"traced peak {peak / cfg.total_bytes:.2f}x the file"

    def test_ocio_fine_grained_peak_holds_no_per_element_objects(self):
        # 16 ranks, 1-element accesses: 16,384 pieces of 12 bytes. The
        # exchange messages are offset/length arrays plus one payload each,
        # delivered by reference: the traced peak is 2.66 MB, 13.5 file
        # sizes. Messages of pickled (offset, bytes) tuples, unpickled
        # again at the aggregator, peaked at 6.79 MB, 34.5 file sizes.
        cfg = BenchConfig(method=Method.OCIO, nprocs=16, len_array=1024, size_access=1)
        tracemalloc.start()
        try:
            result = run_benchmark(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not result.failed
        assert peak <= 20 * cfg.total_bytes, f"traced peak {peak / cfg.total_bytes:.2f}x the file"

    def test_tcio_fine_grained_read_holds_no_per_read_objects(self):
        # 16 ranks, 1-element accesses: 32,768 reads of 4 or 8 bytes, all
        # pending at once. A pending read is four integers in the read log
        # and lands through one held view per destination array: the
        # traced peak is 4.48 MB, 22.8 file sizes. A log holding each
        # read's destination memoryview peaked at 9.74 MB, 49.5 file sizes.
        cfg = BenchConfig(method=Method.TCIO, nprocs=16, len_array=1024, size_access=1)
        tracemalloc.start()
        try:
            result = run_benchmark(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not result.failed
        assert peak <= 35 * cfg.total_bytes, f"traced peak {peak / cfg.total_bytes:.2f}x the file"
