"""The node-local staging buffer and the leader's interval coalescing.

A :class:`StagingBuffer` is host-side shared state (published through
``world.shared``, like TCIO's segment directory): all ranks of one node
deposit outbound pieces into keyed bins, and the node's leader drains whole
bins to build coalesced inter-node messages. Deposits and pickups are
*memory* traffic, not fabric messages — they reserve the node's memory
engine through :func:`charge_staging_copy` (contending with intra-node
messages for memcpy bandwidth) and count ``topo.staging.bytes`` instead of
``net.msg``. That distinction is the whole point: the aggregation trades
charged-per-message network traffic for charged-per-byte memory traffic.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.sim.engine import active_process
from repro.util.intervals import run_heads


class StagingBuffer:
    """One node's staging area, shared by the ranks placed on it.

    Pieces live in *bins* keyed by the caller (TCIO keys by remote segment
    owner; OCIO keys by collective-call sequence and aggregator). ``used``
    tracks resident payload bytes against an optional ``capacity``; callers
    check :meth:`would_overflow` first and fall back to their flat path
    when a deposit will not fit — staging never blocks.
    """

    def __init__(self, node: int, leader_world_rank: int,
                 capacity: Optional[int] = None):
        self.node = node
        self.leader_world_rank = leader_world_rank
        self.capacity = capacity
        self.used = 0
        self.peak = 0
        self.bins: dict[object, list] = {}
        self._bin_bytes: dict[object, int] = {}
        self._bin_allocs: dict[object, list] = {}

    def would_overflow(self, nbytes: int) -> bool:
        """True when depositing *nbytes* more would exceed capacity."""
        return self.capacity is not None and self.used + nbytes > self.capacity

    def deposit(self, key: object, items: Iterable, nbytes: int,
                allocation=None) -> None:
        """Append *items* to bin *key*, accounting *nbytes* of payload.

        ``allocation`` optionally attaches a ``memsim`` allocation backing
        the deposit; the drainer collects it via :meth:`drain_allocs` and
        frees it once the data has left the node.
        """
        self.bins.setdefault(key, []).extend(items)
        self._bin_bytes[key] = self._bin_bytes.get(key, 0) + nbytes
        if allocation is not None:
            self._bin_allocs.setdefault(key, []).append(allocation)
        self.used += nbytes
        self.peak = max(self.peak, self.used)

    def drain(self, key: object) -> list:
        """Remove and return bin *key*'s items (empty list when absent)."""
        self.used -= self._bin_bytes.pop(key, 0)
        return self.bins.pop(key, [])

    def drain_allocs(self, key: object) -> list:
        """Remove and return the allocations attached to bin *key*."""
        return self._bin_allocs.pop(key, [])

    def keys(self) -> list:
        """The populated bin keys, sorted (deterministic drain order)."""
        return sorted(self.bins)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<StagingBuffer node={self.node} used={self.used}"
            f"/{self.capacity} bins={len(self.bins)}>"
        )


def charge_staging_copy(world, rank: int, nbytes: int):
    """Occupy the calling rank until its node memcpy of *nbytes* completes.

    Coroutine. Reserves the node's memory engine through the fabric (so
    staging traffic contends with intra-node messages) without counting a
    network message — see ``Fabric.staging_copy``.
    """
    if nbytes <= 0:
        return
    t = world.fabric.staging_copy(rank, nbytes)
    now = world.engine.now
    if t > now:
        yield from active_process().sleep(t - now)


def coalesce_runs(
    offsets: np.ndarray, lengths: np.ndarray, payload: bytes
) -> tuple[np.ndarray, np.ndarray, bytes]:
    """Merge pieces into maximal contiguous blocks.

    The pieces are ``offsets``/``lengths`` (int64) with their bytes packed
    back to back, in the same order, in *payload*; the blocks come back in
    the same form, ascending. Touching or overlapping pieces collapse into
    one block per merged extent; pieces are painted in input order, so on
    overlap the later deposit wins — the same last-writer-wins the
    un-coalesced transfers would produce when applied in deposit order.
    """
    src = np.cumsum(lengths) - lengths  # each piece's place in *payload*
    keep = lengths > 0
    offsets, lengths, src = offsets[keep], lengths[keep], src[keep]
    if not len(offsets):
        return offsets, lengths, b""
    order = np.argsort(offsets, kind="stable")
    lo = offsets[order]
    hi = np.maximum.accumulate(lo + lengths[order])
    heads = run_heads(lo[1:] > hi[:-1])
    starts = lo[heads]
    sizes = hi[np.append(heads[1:], len(lo)) - 1] - starts
    block = np.empty(len(lo), np.int64)
    block[order] = np.repeat(np.arange(len(heads)), np.diff(np.append(heads, len(lo))))
    dst = (np.cumsum(sizes) - sizes)[block] + (offsets - starts[block])
    out = bytearray(int(sizes.sum()))
    view = memoryview(payload)
    for d, s, n in zip(dst.tolist(), src.tolist(), lengths.tolist()):
        out[d : d + n] = view[s : s + n]
    return starts, sizes, bytes(out)
