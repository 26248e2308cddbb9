"""set_size/preallocate and rounds-based two-phase."""

import pytest

from repro.mpiio import IoHints, MODE_CREATE, MODE_RDWR, MpiFile
from repro.simmpi import run_mpi
from repro.simmpi import collectives as coll
from repro.simmpi.datatypes import BYTE, Contiguous
from repro.util.errors import MpiIoError
from tests.conftest import make_test_cluster


def run(n, fn, **kw):
    kw.setdefault("cluster", make_test_cluster())
    return run_mpi(n, fn, **kw)


class TestSizeManagement:
    def test_set_size_truncates(self):
        def main(env):
            fh = (yield from MpiFile.open(env, "f"))
            (yield from fh.write_at(0, b"x" * 100))
            (yield from coll.barrier(env.comm))
            (yield from fh.set_size(10))
            assert fh.size_bytes() == 10
            (yield from fh.close())

        run(2, main)

    def test_preallocate_extends_only(self):
        def main(env):
            fh = (yield from MpiFile.open(env, "f"))
            (yield from fh.write_at(0, b"abc"))
            (yield from coll.barrier(env.comm))
            (yield from fh.preallocate(50))
            assert fh.size_bytes() == 50
            (yield from fh.preallocate(10))  # never shrinks
            assert fh.size_bytes() == 50
            (yield from fh.close())

        run(2, main)

    def test_negative_sizes_rejected(self):
        def main(env):
            fh = (yield from MpiFile.open(env, "f"))
            with pytest.raises(MpiIoError):
                (yield from fh.set_size(-1))
            with pytest.raises(MpiIoError):
                (yield from fh.preallocate(-1))
            (yield from fh.close())

        run(1, main)


class TestRoundsBasedTwoPhase:
    def _write(self, env, hints):
        etype = Contiguous(4, BYTE)
        ft = etype.vector(8, 1, env.size)
        fh = (yield from MpiFile.open(env, "f", MODE_RDWR | MODE_CREATE, hints))
        (yield from fh.set_view(env.rank * 4, etype, ft))
        (yield from fh.write_all(bytes([65 + env.rank]) * 32))
        (yield from fh.close())

    def expected(self, n):
        return b"".join(bytes([65 + r]) * 4 for r in range(n)) * 8

    def test_rounds_produce_identical_file(self):
        def main(env):
            (yield from self._write(env, IoHints(cb_rounds_buffer=8)))

        res = run(4, main)
        assert res.pfs.lookup("f").contents() == self.expected(4)

    def test_single_giant_round_matches_default(self):
        def main(env):
            (yield from self._write(env, IoHints(cb_rounds_buffer=1 << 20)))

        res = run(4, main)
        assert res.pfs.lookup("f").contents() == self.expected(4)

    def test_rounds_cap_aggregator_memory(self):
        highs = {}

        def main(env, hints, key):
            (yield from self._write(env, hints))
            highs[key] = env.world.memory.high_water()

        run(4, lambda env: main(env, IoHints(cb_rounds_buffer=8), "rounds"))
        run(4, lambda env: main(env, IoHints(), "whole"))
        assert highs["rounds"] < highs["whole"]

    def test_rounds_with_holes(self):
        def main(env):
            fh = (yield from MpiFile.open(env, "f", MODE_RDWR | MODE_CREATE, IoHints(cb_rounds_buffer=6)))
            (yield from fh.write_at_all(env.rank * 40, bytes([65 + env.rank]) * 8))
            (yield from fh.close())

        res = run(2, main)
        data = res.pfs.lookup("f").contents()
        assert data[0:8] == b"A" * 8
        assert data[40:48] == b"B" * 8
