"""Replayable synthetic workload traces for the I/O-server mode.

A :class:`WorkloadTrace` is a seeded, fully deterministic request stream
from ``nclients`` logical clients against one shared file: an epoch-
structured sequence of ``open`` / ``write`` / ``flush`` / ``close``
requests, optionally followed by a read phase (``open`` read-only /
``fetch`` / ``close``). The same trace drives four executions that must
end byte-identical — delegate-server mode and the three direct replays
(TCIO, OCIO, MPI-IO) — so the format carries everything those paths
need and nothing they could disagree on:

* **Payloads are derived, not stored.** A write's bytes are a pure
  function :func:`payload_bytes` of ``(seed, client, seq, nbytes)``, so
  traces stay small and replays can neither drop nor reorder data
  silently — the wrong bytes simply don't match.
* **Client regions are disjoint.** Every ``(client, epoch)`` pair owns
  its own byte range. Within one client, requests apply in ``seq``
  order on every path (clients are sequential); across clients no byte
  is ever contended, so the final image is independent of the arrival
  interleaving delegates happen to see. That is what makes
  "byte-identical across paths" a theorem rather than a race.
* **Think times are part of the trace.** Each op carries a seeded
  virtual-clock delay, so queue depths and tail latencies are properties
  of the *trace*, replayed bit-identically, not of host scheduling.

:func:`expected_image` computes the analytic file image (optionally
truncated to a committed-epoch prefix), which anchors both the
differential suites and the crash-recovery matrix.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Optional

from repro.util.errors import IoServerError
from repro.util.rng import seeded_rng

#: On-disk format marker (:func:`save_trace` / :func:`load_trace`).
TRACE_FORMAT = "repro-ioserver-trace"
TRACE_VERSION = 1

#: The request verbs a trace may contain, in no particular order.
OPS = ("open", "write", "flush", "fetch", "close")


@dataclass(frozen=True)
class TraceOp:
    """One request of one logical client.

    ``seq`` is globally unique and totally orders the trace; each
    client's subsequence is its program order. ``mode`` is only
    meaningful for ``open`` ("w" or "r"); ``offset``/``nbytes`` only for
    ``write`` and ``fetch``; ``delay`` is virtual think time the client
    waits before issuing the request.
    """

    seq: int
    client: int
    op: str
    offset: int = 0
    nbytes: int = 0
    mode: str = ""
    delay: float = 0.0


@dataclass(frozen=True)
class WorkloadTrace:
    """A complete, replayable request stream against one file."""

    seed: int
    nclients: int
    file_name: str
    ops: tuple[TraceOp, ...]

    @property
    def epochs(self) -> int:
        """Number of global flush barriers in the write phase."""
        return sum(1 for op in self.ops if op.op == "flush" and op.client == 0)

    @property
    def written_bytes(self) -> int:
        """Total payload bytes across all write requests."""
        return sum(op.nbytes for op in self.ops if op.op == "write")

    def validate(self) -> None:
        """Check the structural invariants replays rely on."""
        seqs = [op.seq for op in self.ops]
        if seqs != sorted(seqs) or len(set(seqs)) != len(seqs):
            raise IoServerError("trace ops must be strictly seq-ordered")
        flushes_of = [0] * self.nclients
        for op in self.ops:
            if op.op not in OPS:
                raise IoServerError(f"unknown trace op {op.op!r}")
            if not 0 <= op.client < self.nclients:
                raise IoServerError(f"op {op.seq}: client {op.client} out of range")
            if op.op == "flush":
                flushes_of[op.client] += 1
        if len(set(flushes_of)) > 1:
            # Flushes are collective on every replay path: uneven counts
            # would wedge the direct TCIO replay at a barrier.
            raise IoServerError("every client must flush the same number of times")


def payload_bytes(seed: int, client: int, seq: int, nbytes: int) -> bytes:
    """The deterministic payload of one write request.

    SHA-256 in counter mode over ``(seed, client, seq)``: stable across
    platforms, incompressible enough that any replay mixing up requests
    (or truncating one) breaks the byte-for-byte differential.
    """
    out = bytearray()
    counter = 0
    while len(out) < nbytes:
        text = repr((int(seed), int(client), int(seq), counter))
        out += hashlib.sha256(text.encode("utf-8")).digest()
        counter += 1
    return bytes(out[:nbytes])


def generate_trace(
    seed: int,
    nclients: int,
    *,
    epochs: int = 2,
    writes_per_epoch: int = 3,
    max_write_bytes: int = 96,
    reads_per_client: int = 2,
    mean_think: float = 20e-6,
    dense: bool = False,
    file_name: str = "ioserver.dat",
) -> WorkloadTrace:
    """Generate a seeded, structurally valid workload trace.

    Each ``(client, epoch)`` pair owns the disjoint region
    ``[(epoch * nclients + client) * R, ... + R)`` with
    ``R = writes_per_epoch * max_write_bytes``; the client issues
    ``writes_per_epoch`` seeded-size writes at seeded offsets inside it
    (self-overlap allowed — program order resolves it identically on
    every path). All clients flush after every epoch and close after the
    last; with ``reads_per_client > 0`` a read phase reopens the file
    read-only and fetches seeded subranges of the client's own regions.

    ``dense=True`` tiles each region exactly (every write is
    ``max_write_bytes`` at the next sequential offset), leaving no holes
    inside the eof — what fsck-based crash accounting needs, since a
    sparse file's holes are indistinguishable from untracked bytes.
    """
    if nclients < 1 or epochs < 1 or writes_per_epoch < 1:
        raise IoServerError("need at least one client, epoch, and write")
    region = writes_per_epoch * max_write_bytes
    ops: list[TraceOp] = []
    seq = 0

    def emit(client: int, op: str, **kw) -> None:
        nonlocal seq
        ops.append(TraceOp(seq=seq, client=client, op=op, **kw))
        seq += 1

    def think(rng) -> float:
        # Bounded uniform think time: spreads arrivals across the virtual
        # clock without the unbounded tail an exponential would add.
        return float(rng.uniform(0.0, 2.0 * mean_think))

    for client in range(nclients):
        emit(client, "open", mode="w")
    for epoch in range(epochs):
        # Round-robin across clients inside the epoch so delegates see
        # interleaved arrivals rather than one client's burst at a time.
        rngs = [
            seeded_rng(seed, "ioserver", "write", client, epoch)
            for client in range(nclients)
        ]
        for w in range(writes_per_epoch):
            for client in range(nclients):
                rng = rngs[client]
                base = (epoch * nclients + client) * region
                if dense:
                    nbytes = max_write_bytes
                    offset = base + w * max_write_bytes
                else:
                    nbytes = int(rng.integers(1, max_write_bytes + 1))
                    offset = base + int(rng.integers(0, region - nbytes + 1))
                emit(
                    client, "write",
                    offset=offset, nbytes=nbytes, delay=think(rng),
                )
        for client in range(nclients):
            emit(client, "flush")
    for client in range(nclients):
        emit(client, "close")
    if reads_per_client > 0:
        # Clamp read ranges to the written eof so every replay path (PFS
        # reads included) sees in-bounds requests with identical answers.
        eof = max(op.offset + op.nbytes for op in ops if op.op == "write")
        for client in range(nclients):
            emit(client, "open", mode="r")
        for r in range(reads_per_client):
            for client in range(nclients):
                rng = seeded_rng(seed, "ioserver", "read", client, r)
                epoch = int(rng.integers(0, epochs))
                base = (epoch * nclients + client) * region
                nbytes = int(rng.integers(1, region + 1))
                offset = base + int(rng.integers(0, region - nbytes + 1))
                end = min(offset + nbytes, eof)
                offset = min(offset, eof - 1)
                nbytes = max(1, end - offset)
                emit(
                    client, "fetch",
                    offset=offset, nbytes=nbytes, delay=think(rng),
                )
        for client in range(nclients):
            emit(client, "close")
    trace = WorkloadTrace(
        seed=seed, nclients=nclients, file_name=file_name, ops=tuple(ops)
    )
    trace.validate()
    return trace


def expected_image(trace: WorkloadTrace, epochs: Optional[int] = None) -> bytes:
    """The analytic file image after the first *epochs* flush barriers.

    ``None`` applies the whole write phase (what a clean run must leave
    on the file system); ``epochs=k`` stops after the k-th global flush —
    exactly the committed prefix crash recovery must reproduce when a
    delegate dies before the (k+1)-th epoch's commit mark is durable.
    """
    writes: list[TraceOp] = []
    flushed = 0
    for op in trace.ops:
        if op.op == "write":
            writes.append(op)
        elif op.op == "flush" and op.client == 0:
            flushed += 1
            if epochs is not None and flushed >= epochs:
                break
    if not writes:
        return b""
    eof = max(op.offset + op.nbytes for op in writes)
    image = bytearray(eof)
    for op in writes:  # seq order == program order per client
        image[op.offset : op.offset + op.nbytes] = payload_bytes(
            trace.seed, op.client, op.seq, op.nbytes
        )
    return bytes(image)


def expected_fetch(trace: WorkloadTrace, op: TraceOp) -> bytes:
    """The bytes one ``fetch`` request must return (from the final image)."""
    image = expected_image(trace)
    out = image[op.offset : op.offset + op.nbytes]
    return out + b"\0" * (op.nbytes - len(out))  # reads past eof see zeros


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------


def save_trace(trace: WorkloadTrace, path: str) -> None:
    """Write a trace as versioned JSON (payloads are derived, not stored)."""
    doc = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "seed": trace.seed,
        "nclients": trace.nclients,
        "file_name": trace.file_name,
        "ops": [asdict(op) for op in trace.ops],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_trace(path: str) -> WorkloadTrace:
    """Load (and validate) a trace written by :func:`save_trace`."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != TRACE_FORMAT:
        raise IoServerError(f"{path}: not a {TRACE_FORMAT} file")
    if doc.get("version") != TRACE_VERSION:
        raise IoServerError(
            f"{path}: trace version {doc.get('version')} unsupported "
            f"(expected {TRACE_VERSION})"
        )
    trace = WorkloadTrace(
        seed=int(doc["seed"]),
        nclients=int(doc["nclients"]),
        file_name=str(doc["file_name"]),
        ops=tuple(TraceOp(**op) for op in doc["ops"]),
    )
    trace.validate()
    return trace
