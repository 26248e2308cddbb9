"""File system front-end tests: namespace, clients, data integrity, timing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pfs.file import PfsFile
from repro.pfs.filesystem import Pfs
from repro.pfs.layout import StripeLayout
from repro.pfs.spec import LustreSpec
from repro.sim.engine import Engine
from repro.util.errors import PfsError


def make_pfs(engine=None, **spec_overrides):
    spec_kwargs = dict(
        n_osts=4,
        stripe_size=64,
        default_stripe_count=2,
        ost_write_bandwidth=1000.0,
        ost_read_bandwidth=2000.0,
        ost_write_overhead=0.01,
        ost_read_overhead=0.005,
        lock_latency=0.001,
        client_bandwidth=4000.0,
    )
    spec_kwargs.update(spec_overrides)
    engine = engine or Engine()
    return engine, Pfs(engine, LustreSpec(**spec_kwargs), n_client_nodes=2)


class TestNamespace:
    def test_create_lookup_unlink(self):
        _, pfs = make_pfs()
        f = pfs.create("a")
        assert pfs.lookup("a") is f
        assert pfs.exists("a")
        pfs.unlink("a")
        assert not pfs.exists("a")
        with pytest.raises(PfsError):
            pfs.lookup("a")

    def test_create_is_idempotent(self):
        _, pfs = make_pfs()
        assert pfs.create("a") is pfs.create("a")

    def test_files_rotate_starting_osts(self):
        _, pfs = make_pfs()
        f1 = pfs.create("a")
        f2 = pfs.create("b")
        assert f1.layout.first_ost != f2.layout.first_ost

    def test_pinned_first_ost_leaves_the_cursor(self):
        _, pfs = make_pfs()
        pfs.create("a")
        pinned = pfs.create("log", stripe_count=1, first_ost=3)
        assert (pinned.layout.stripe_count, pinned.layout.first_ost) == (1, 3)
        # "b" starts where it would have had "log" never been created
        assert pfs.create("b").layout.first_ost == 2
        with pytest.raises(PfsError):
            pfs.create("bad", first_ost=4)

    def test_stripe_count_override(self):
        _, pfs = make_pfs()
        f = pfs.create("wide", stripe_count=4)
        assert f.layout.stripe_count == 4

    def test_unknown_client_node_rejected(self):
        _, pfs = make_pfs()
        with pytest.raises(PfsError):
            pfs.client(5)


class TestPfsFileBytes:
    def test_write_then_read(self):
        f = PfsFile("x", StripeLayout(64, 1, 0, 4))
        f.write_bytes(10, b"hello")
        assert f.read_bytes(10, 5) == b"hello"
        assert f.size == 15

    def test_holes_read_as_zeros(self):
        f = PfsFile("x", StripeLayout(64, 1, 0, 4))
        f.write_bytes(100, b"z")
        assert f.read_bytes(0, 4) == b"\x00" * 4

    def test_read_past_eof_zero_fills(self):
        f = PfsFile("x", StripeLayout(64, 1, 0, 4))
        f.write_bytes(0, b"ab")
        assert f.read_bytes(0, 5) == b"ab\x00\x00\x00"

    def test_truncate_shrinks_and_grows(self):
        f = PfsFile("x", StripeLayout(64, 1, 0, 4))
        f.write_bytes(0, b"abcdef")
        f.truncate(3)
        assert f.contents() == b"abc"
        f.truncate(5)
        assert f.contents() == b"abc\x00\x00"

    def test_write_past_eof_zero_fills_only_the_gap(self):
        f = PfsFile("x", StripeLayout(64, 1, 0, 4))
        f.write_bytes(0, b"head")
        f.write_bytes(10, memoryview(b"tail"))
        assert f.contents() == b"head" + b"\x00" * 6 + b"tail"
        f.write_bytes(14, b"more")  # appends at EOF: no gap at all
        f.write_bytes(12, b"STRADDLE")  # overwrites two bytes, grows by six
        assert f.contents() == b"head" + b"\x00" * 6 + b"taSTRADDLE"
        f.write_bytes(2, b"xy")  # in place, size unchanged
        assert f.contents() == b"hexy" + b"\x00" * 6 + b"taSTRADDLE"
        f.truncate(12)
        f.write_bytes(16, b"!")
        assert f.contents() == b"hexy" + b"\x00" * 6 + b"ta" + b"\x00" * 4 + b"!"

    def test_a_write_past_eof_grows_the_file_once(self):
        resizes = []

        class Tracked(bytearray):
            def extend(self, more):
                resizes.append("extend")
                super().extend(more)

            def __setitem__(self, key, value):
                before = len(self)
                super().__setitem__(key, value)
                if len(self) != before:
                    resizes.append("setitem")

        f = PfsFile("x", StripeLayout(64, 1, 0, 4))
        f.data = Tracked(b"head")
        assert f.read_bytes(0, 4) == b"head"  # a read leaves the file resizable
        f.write_bytes(10, b"tail")
        assert resizes == ["extend"]
        f.write_bytes(14, b"more")
        assert resizes == ["extend", "setitem"]
        assert f.contents() == b"head" + bytes(6) + b"tailmore"

    def test_negative_offsets_rejected(self):
        f = PfsFile("x", StripeLayout(64, 1, 0, 4))
        with pytest.raises(PfsError):
            f.write_bytes(-1, b"a")
        with pytest.raises(PfsError):
            f.read_bytes(-1, 1)


class TestClientOps:
    def _run(self, body):
        engine = Engine()
        _, pfs = make_pfs(engine)
        out = {}

        def target():
            out["result"] = yield from body(pfs, engine)

        engine.spawn("p", target)
        engine.run()
        return out["result"], engine, pfs

    def test_write_read_round_trip_takes_time(self):
        def body(pfs, engine):
            from repro.sim.engine import active_process

            client = pfs.client(0)
            f = pfs.create("f")
            t0 = engine.now
            yield from client.write(f, 0, b"A" * 500)
            yield from active_process().settle()  # completion charged lazily
            t1 = engine.now
            data = yield from client.read(f, 0, 500)
            yield from active_process().settle()
            return data, t1 - t0, engine.now - t1

        (data, t_write, t_read), _, _ = self._run(body)
        assert data == b"A" * 500
        assert t_write > 0
        assert t_read > 0
        assert t_read < t_write  # read path is faster

    def test_zero_byte_ops_are_free(self):
        def body(pfs, engine):
            client = pfs.client(0)
            f = pfs.create("f")
            t0 = engine.now
            yield from client.write(f, 0, b"")
            assert (yield from client.read(f, 0, 0)) == b""
            return engine.now - t0

        elapsed, _, _ = self._run(body)
        assert elapsed == 0.0

    def test_striped_write_uses_multiple_osts(self):
        def body(pfs, engine):
            client = pfs.client(0)
            f = pfs.create("f", stripe_count=4)
            yield from client.write(f, 0, b"B" * 256)  # 4 stripes of 64
            return sum(1 for ost in pfs.osts if ost.write_requests > 0)

        n_osts_used, _, _ = self._run(body)
        assert n_osts_used == 4

    def test_large_write_on_more_osts_is_faster(self):
        def timed(stripe_count):
            def body(pfs, engine):
                from repro.sim.engine import active_process

                client = pfs.client(0)
                f = pfs.create("f", stripe_count=stripe_count)
                t0 = engine.now
                yield from client.write(f, 0, b"C" * 4096)
                yield from active_process().settle()
                return engine.now - t0

            return self._run(body)[0]

        assert timed(4) < timed(1)


class TestRandomWorkloads:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 800), st.integers(1, 200)),
            min_size=1,
            max_size=20,
        ),
        st.integers(1, 4),
    )
    def test_matches_reference_byte_array(self, writes, stripe_count):
        """Any single-client write sequence equals a plain bytearray model."""
        engine = Engine()
        _, pfs = make_pfs(engine)
        reference = bytearray(1200)
        size = 0

        def body():
            client = pfs.client(0)
            f = pfs.create("f", stripe_count=stripe_count)
            rng = np.random.default_rng(42)
            for off, ln in writes:
                payload = rng.integers(1, 255, ln, dtype=np.uint8).tobytes()
                yield from client.write(f, off, payload)
                reference[off : off + ln] = payload

        engine.spawn("p", body)
        engine.run()
        size = max((off + ln for off, ln in writes), default=0)
        assert pfs.lookup("f").contents() == bytes(reference[:size])
