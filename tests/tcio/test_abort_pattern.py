"""TcioFile lifecycle discipline: clean close, exception abort.

The handle deliberately has no context-manager protocol — ``close()`` is
a collective coroutine and ``__exit__`` cannot ``yield from``. The
supported spelling is::

    fh = yield from tcio_open(env, name, mode)
    try:
        ...
        yield from fh.close()
    except BaseException:
        fh.abort()   # local-only teardown; never deadlocks peers
        raise

These tests pin both halves of that contract.
"""

import pytest

from repro.simmpi import run_mpi
from repro.tcio import (
    TCIO_RDONLY,
    TCIO_WRONLY,
    TcioConfig,
    TcioFile,
    tcio_close,
    tcio_fetch,
    tcio_open,
    tcio_read_at,
    tcio_write_at,
)
from repro.util.errors import TcioError
from tests.conftest import make_test_cluster


def run(n, fn, **kw):
    kw.setdefault("cluster", make_test_cluster())
    return run_mpi(n, fn, **kw)


def cfg_for(total, nranks, segment=64):
    return TcioConfig.sized_for(total, nranks, segment)


class TestCleanExit:
    def test_close_writes_back_and_seals_handle(self):
        def main(env):
            fh = yield from tcio_open(env, "f", TCIO_WRONLY, cfg_for(64, env.size, 16))
            yield from tcio_write_at(fh, env.rank * 8, bytes([65 + env.rank]) * 8)
            yield from tcio_close(fh)
            assert fh._closed
            with pytest.raises(TcioError):
                yield from fh.write(b"late")
            return fh.stats.as_dict()

        res = run(2, main)
        assert res.pfs.lookup("f").contents() == b"A" * 8 + b"B" * 8
        assert res.returns[0]["write_calls"] == 1

    def test_round_trip_write_then_read(self):
        def main(env):
            cfg = cfg_for(64, env.size, 16)
            fh = yield from tcio_open(env, "f", TCIO_WRONLY, cfg)
            yield from tcio_write_at(fh, env.rank * 4, b"%04d" % env.rank)
            yield from tcio_close(fh)
            fh = yield from tcio_open(env, "f", TCIO_RDONLY, cfg)
            buf = bytearray(4)
            yield from tcio_read_at(fh, env.rank * 4, buf)
            yield from tcio_fetch(fh)
            yield from tcio_close(fh)
            return bytes(buf)

        res = run(2, main)
        assert res.returns == [b"0000", b"0001"]

    def test_has_no_context_manager_protocol(self):
        # the old ``with tcio_open(...)`` spelling must fail loudly, not
        # silently skip the collective close
        assert not hasattr(TcioFile, "__enter__")
        assert not hasattr(TcioFile, "__exit__")

    def test_double_close_raises(self):
        def main(env):
            fh = yield from tcio_open(env, "f", TCIO_WRONLY, cfg_for(64, env.size, 16))
            yield from tcio_close(fh)
            try:
                yield from fh.close()
            except TcioError:
                return "raised"
            return "no error"

        assert run(2, main).returns == ["raised", "raised"]


class TestExceptionExit:
    def test_abort_releases_without_collectives(self):
        """A body failing on every rank must unwind via ``abort()``, not
        deadlock in a collective close, and must free the handle's
        simulated memory."""

        def main(env):
            fh = yield from tcio_open(env, "f", TCIO_WRONLY, cfg_for(64, env.size, 16))
            with pytest.raises(RuntimeError, match="boom"):
                try:
                    yield from tcio_write_at(fh, env.rank * 8, b"x" * 8)
                    raise RuntimeError("boom")
                except BaseException:
                    fh.abort()
                    raise
            assert fh._closed
            assert fh._allocs == []
            return True

        res = run(2, main)
        assert all(res.returns)
        memory = res.world.memory
        for node in set(memory.node_of):  # nothing leaked anywhere
            assert memory.breakdown(node) == {}

    def test_abort_is_idempotent_and_local(self):
        def main(env):
            fh = yield from tcio_open(env, "f", TCIO_WRONLY, cfg_for(64, env.size, 16))
            fh.abort()
            fh.abort()  # second abort is a no-op, not an error
            assert fh._closed
            return True

        assert all(run(2, main).returns)

    def test_exception_propagates(self):
        def main(env):
            fh = yield from tcio_open(env, "f", TCIO_WRONLY, cfg_for(64, env.size, 16))
            try:
                raise ValueError("surface me")
            except BaseException:
                fh.abort()
                raise

        with pytest.raises(ValueError, match="surface me"):
            run(2, main)
