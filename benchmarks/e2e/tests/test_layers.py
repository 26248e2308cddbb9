"""Layer attribution on a hand-built pstats table."""

from __future__ import annotations

import pytest

from benchmarks.e2e import layers

PLACE = ("/x/src/repro/tcio/level1.py", 10, "place")
WRITE_AT = ("/x/src/repro/tcio/file.py", 322, "write_at")
FLUSH = ("/x/src/repro/tcio/file.py", 359, "_flush_level1")
TRANSFER = ("/x/src/repro/pfs/filesystem.py", 392, "_transfer")
MAIN = ("/x/src/repro/bench/synthetic.py", 149, "_tcio_write")
ALLOCATE = ("/x/src/repro/memsim/memory.py", 5, "allocate")
JOIN = ("~", 0, "<method 'join' of 'bytes' objects>")
REPLACE = ("/usr/lib/python3.11/dataclasses.py", 1400, "replace")
GETATTR = ("~", 0, "<built-in method builtins.getattr>")
EXEC = ("~", 0, "<built-in method builtins.exec>")


def _table():
    # func: (primitive calls, calls, self_s, cumulative_s, callers)
    # caller: (calls, primitive calls, self_s, cumulative_s)
    return {
        EXEC: (1, 1, 0.25, 10.0, {}),
        MAIN: (1, 1, 1.0, 9.75, {EXEC: (1, 1, 1.0, 9.75)}),
        WRITE_AT: (100, 100, 2.0, 7.0, {MAIN: (100, 100, 2.0, 7.0)}),
        FLUSH: (10, 10, 0.5, 3.0, {WRITE_AT: (10, 10, 0.5, 3.0)}),
        PLACE: (100, 100, 1.0, 1.5, {WRITE_AT: (100, 100, 1.0, 1.5)}),
        TRANSFER: (10, 10, 1.5, 2.5, {FLUSH: (10, 10, 1.5, 2.5)}),
        ALLOCATE: (1, 1, 0.75, 0.75, {MAIN: (1, 1, 0.75, 0.75)}),
        # bytes.join: 0.5 s under tcio.level1, 0.25 s under pfs
        JOIN: (110, 110, 0.75, 0.75, {
            PLACE: (100, 100, 0.5, 0.5),
            TRANSFER: (10, 10, 0.25, 0.25),
        }),
        # a stdlib function reached from tcio.file (3/4) and pfs (1/4) ...
        REPLACE: (4, 4, 0.5, 1.0, {
            WRITE_AT: (3, 3, 0.375, 0.75),
            TRANSFER: (1, 1, 0.125, 0.25),
        }),
        # ... whose builtin callee splits the same way
        GETATTR: (4, 4, 0.5, 0.5, {REPLACE: (4, 4, 0.5, 0.5)}),
    }


def test_leaf_of():
    assert layers.leaf_of("/x/src/repro/pfs/ost.py") == "pfs"
    assert layers.leaf_of("/x/src/repro/tcio/level1.py") == "tcio.level1"
    assert layers.leaf_of("/x/src/repro/memsim/memory.py") == "other"
    assert layers.leaf_of("/x/src/repro/cli.py") == "other"
    assert layers.leaf_of("~") is None
    assert layers.leaf_of("/usr/lib/python3.11/json/encoder.py") is None
    assert layers.leaf_of("/x/benchmarks/e2e/harness.py") is None


def test_builtin_time_is_charged_to_the_calling_package():
    got = layers.attribute(_table())
    self_s = got.self_s
    assert self_s["tcio.level1"] == pytest.approx(1.0 + 0.5)  # place + its join
    assert self_s["pfs"] == pytest.approx(
        1.5 + 0.25 + 0.125 + 0.5 * 0.25  # _transfer, join, replace, getattr
    )
    assert self_s["tcio.file"] == pytest.approx(
        2.0 + 0.5 + 0.375 + 0.5 * 0.75  # write_at, flush, replace, getattr
    )
    assert self_s["bench"] == pytest.approx(1.0)


def test_unknown_packages_and_roots_land_in_other():
    got = layers.attribute(_table())
    assert got.self_s["other"] == pytest.approx(0.75 + 0.25)  # memsim + exec


def test_no_time_is_lost_and_tcio_rolls_up():
    table = _table()
    got = layers.attribute(table)
    assert sum(got.self_s.values()) == pytest.approx(
        sum(row[2] for row in table.values())
    )
    rolled = layers.rolled_up(got.self_s)
    assert rolled["tcio"] == pytest.approx(
        got.self_s["tcio.file"] + got.self_s["tcio.level1"]
    )
    assert layers.rolled_up(got.calls)["tcio"] == 100 + 10 + 100
    assert "bench" in rolled and rolled["bench"] == got.self_s["bench"]


def test_edges_cross_layers_only():
    got = layers.attribute(_table())
    assert got.edges[("bench", "tcio")] == pytest.approx([100, 7.0])
    assert got.edges[("tcio", "pfs")] == pytest.approx([10, 2.5])
    assert got.edges[("bench", "other")] == pytest.approx([1, 0.75])
    assert ("tcio", "tcio") not in got.edges


def test_inclusive_time_counts_nested_targets_once():
    table = _table()
    targets = (("repro/tcio/file.py", "write_at"), ("repro/tcio/file.py", "_flush_level1"))
    assert layers.inclusive_s(table, targets) == pytest.approx(7.0)
    assert layers.inclusive_s(table, targets[1:]) == pytest.approx(3.0)
    assert layers.primitive_calls(table, targets) == 110
    assert layers.inclusive_s(table, (("repro/mpiio/file.py", "write_at"),)) == 0
