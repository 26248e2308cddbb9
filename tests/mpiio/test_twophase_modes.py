"""Every OCIO mode replays one recorded schedule.

``twophase.write_all`` / ``read_all`` are one sequence each — setup, then
per window {split, exchange, assemble + hole RMW + one write} — with the
edge router (flat or node) and the window size (whole domain or
``cb_rounds_buffer`` slices) as the only parameters. This differential
pins, per mode, the file bytes, the read-back bytes, and the numbers that
move if a collective, message, staging charge or PFS request is added,
dropped or reordered: the job's simulated seconds, its engine event
count, the fabric message/connection counts and the OCIO/topology
counters. The golden values were recorded on the implementation this
one replaced, which spelt the sequence five times (flat, node and rounds
writes; flat and node reads).
"""

from __future__ import annotations

import pytest

from repro.mpiio import IoHints, MODE_RDWR, MpiFile
from repro.simmpi import collectives as coll
from repro.simmpi.datatypes import BYTE, Contiguous
from tests.conftest import make_test_cluster, run_small

NRANKS = 8
BLK = 24  # not a multiple of the 16 B round: rounds cut inside blocks
NB = 3  # blocks per rank per collective write
CALLS = 4  # collective writes
ROUNDS_COUNTER = "ocio.write_all" + "_rounds"  # what rounds mode counts under

MODES = {
    "flat": IoHints(cb_align_stripes=False),
    "aligned": IoHints(),
    "cb3": IoHints(cb_align_stripes=False, cb_nodes=3),
    "node": IoHints(cb_align_stripes=False, cb_aggregation="node"),
    "node-cb3": IoHints(cb_align_stripes=False, cb_aggregation="node", cb_nodes=3),
    "rounds16": IoHints(cb_align_stripes=False, cb_rounds_buffer=16),
    "rounds16-cb3": IoHints(cb_align_stripes=False, cb_rounds_buffer=16, cb_nodes=3),
}


def _block(rank: int, index: int) -> bytes:
    return bytes((rank * 37 + index * 11 + i) % 250 + 1 for i in range(BLK))


def _stride(holes: bool) -> int:
    """Blocks between one rank's consecutive blocks; holes double it, so
    every other row of the file is never written."""
    return NRANKS * (2 if holes else 1)


def reference(holes: bool) -> bytes:
    """The analytic image: row j holds rank 0..P-1's block j; with holes
    the odd rows keep the prefill."""
    rows = []
    for j in range(CALLS * NB):
        rows.append(b"".join(_block(r, j) for r in range(NRANKS)))
        if holes:
            rows.append(b"?" * (NRANKS * BLK))
    return b"".join(rows)


def run_case(hints: IoHints, holes: bool):
    def main(env):
        f = env.pfs.create("f")
        if holes and env.rank == 0:
            f.write_bytes(0, b"?" * len(reference(True)))
        yield from coll.barrier(env.comm)
        etype = Contiguous(BLK, BYTE)
        fh = yield from MpiFile.open(env, "f", MODE_RDWR, hints)
        yield from fh.set_view(
            env.rank * BLK, etype, etype.vector(CALLS * NB, 1, _stride(holes))
        )
        for k in range(CALLS):
            payload = b"".join(_block(env.rank, k * NB + j) for j in range(NB))
            yield from fh.write_at_all(k * NB, payload)
        half = CALLS * NB // 2
        back = yield from fh.read_at_all(0, half, etype)
        back += yield from fh.read_at_all(half, CALLS * NB - half, etype)
        yield from fh.close()
        return back

    # two ranks per node: the node router has remote leaders to drain to
    return run_small(
        NRANKS, main, cluster=make_test_cluster(nodes=4, cores_per_node=2)
    )


def observe(res) -> tuple:
    """(clock, events, net.msg, net.connection, write-counter total,
    ocio.read_all total, topo.drain.messages count)."""
    t = res.trace
    written = t.get("ocio.write_all").total + t.get(ROUNDS_COUNTER).total
    return (
        res.elapsed,
        int(t.get("host.engine.events").total),
        t.get("net.msg").count,
        t.get("net.connection").count,
        int(written),
        int(t.get("ocio.read_all").total),
        t.get("topo.drain.messages").count,
    )


#: (mode, holes) -> observe() of the run, recorded at the parent commit.
GOLDEN = {
    ("aligned", False): (0.00015484120735043325, 1446, 522, 48, 2304, 2304, 0),
    ("aligned", True): (0.00018297798817618725, 1454, 522, 48, 2304, 2304, 0),
    ("cb3", False): (0.00019764731023776588, 1680, 606, 48, 2304, 2304, 0),
    ("cb3", True): (0.00022206526508100895, 1706, 606, 48, 2304, 2304, 0),
    ("flat", False): (0.0002975966070753938, 1887, 644, 48, 2304, 2304, 0),
    ("flat", True): (0.0003195018901629659, 1941, 644, 48, 2304, 2304, 0),
    ("node", False): (0.00030430223612844986, 1569, 416, 42, 2304, 2304, 144),
    ("node", True): (0.0003344965636104555, 1653, 420, 44, 2304, 2304, 144),
    ("node-cb3", False): (0.00019611077653348475, 1105, 258, 30, 2304, 2304, 54),
    ("node-cb3", True): (0.00021975713443090557, 1132, 258, 30, 2304, 2304, 54),
    ("rounds16", False): (0.0009631834966246502, 4552, 1620, 48, 2304, 2304, 0),
    ("rounds16", True): (0.0014636897536200906, 6530, 2292, 48, 2304, 2304, 0),
    ("rounds16-cb3", False): (0.0010183957083428475, 7700, 3154, 48, 2304, 2304, 0),
    ("rounds16-cb3", True): (0.0014417395547598364, 12062, 4946, 48, 2304, 2304, 0),
}


@pytest.mark.parametrize("mode,holes", sorted(GOLDEN), ids=str)
def test_replays_recorded_schedule(mode, holes):
    res = run_case(MODES[mode], holes)
    assert res.pfs.lookup("f").contents() == reference(holes)
    for rank, back in enumerate(res.returns):
        assert back == b"".join(_block(rank, j) for j in range(CALLS * NB))
    rounds = MODES[mode].cb_rounds_buffer is not None
    name = ROUNDS_COUNTER if rounds else "ocio.write_all"
    assert res.trace.get(name).count == NRANKS * CALLS
    assert observe(res) == GOLDEN[(mode, holes)]


@pytest.mark.parametrize("holes", [False, True], ids=["dense", "holes"])
def test_one_unbounded_round_is_the_flat_exchange(holes):
    """The fact the merge rests on: a window that covers the whole domain
    is the flat exchange, message for message."""
    flat = run_case(MODES["flat"], holes)
    one_round = run_case(
        IoHints(cb_align_stripes=False, cb_rounds_buffer=1 << 30), holes
    )
    assert one_round.pfs.lookup("f").contents() == flat.pfs.lookup("f").contents()
    assert observe(one_round) == observe(flat)
