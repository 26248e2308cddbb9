"""The epoch journal (``TcioConfig.journal == "epoch"``): one write-ahead
append per epoch, then the commit mark: phase 1 of a collective point.
Owns this rank's journal file and its append offset. The byte format is
:mod:`repro.crash.journal`'s; ``TcioFile._collective_point`` decides when
an epoch runs and does the in-place write-back (phase 2) after it.
"""

from __future__ import annotations

from repro.crash.journal import commit_name, pack_commit, pack_record_head, rank_journal
from repro.simmpi import collectives


class EpochJournal:
    """One write handle's side of the two-phase journaled protocol."""

    def __init__(self, fh):
        self.fh = fh
        pfs = fh.env.pfs
        # One stripe on its own OST, as file-per-process logs are placed
        # (``lfs setstripe -c 1 -i <rank>``): full-width journals would
        # not move the round-robin cursor, so all would start on one OST
        # and every rank's small records would queue there.
        rank = fh.env.rank
        self.journal = pfs.create(
            rank_journal(fh.name, rank),
            stripe_count=1,
            first_ost=rank % fh.pfs_file.layout.n_osts,
        )
        # Fresh-file semantics, like the data file's: records from an
        # earlier open of this name must not replay.
        self.journal.truncate(0)
        self.pos = 0  # append offset into this rank's journal
        if fh.comm.rank == 0:
            pfs.create(commit_name(fh.name)).truncate(0)

    def write_ahead(self, epoch: int, eof: int, segments):
        """Journal and commit one epoch (collective coroutine).

        ``segments`` yields ``(gseg, pieces)`` for every owned segment the
        epoch writes back (``pieces`` as ``TcioFile._segment_pieces`` gives
        them). Every owner appends its records, one
        ``pack_record_head(...) + payload`` per segment, as one contiguous
        append of two PFS writes: the first record's header+extents, then
        everything else, with the ``mid-flush`` crash point between them.
        A crash there leaves exactly one torn record at the journal's
        tail, the artifact recovery must tolerate. After a barrier proving
        every record durable, rank 0 appends the commit mark — only then
        does the epoch count, and ``repro.crash.recover`` can replay it
        after a crash anywhere (``docs/faults.md``).
        """
        fh = self.fh
        chunks: list[bytes] = []  # head, payload, head, payload, ...
        for gseg, pieces in segments:
            if pieces is not None:
                payload = b"".join(data for _, data in pieces)
                extents = [(lo, lo + len(data)) for lo, data in pieces]
                chunks += (pack_record_head(epoch, gseg, extents, payload), payload)
        if chunks:
            head, rest = chunks[0], b"".join(chunks[1:])
            records, nbytes = len(chunks) // 2, len(head) + len(rest)
            pos, journal = self.pos, self.journal
            with fh._tracer.span("tcio.journal_append", epoch=epoch, records=records, bytes=nbytes):
                yield from fh._pfs_write("tcio.journal.head", pos, head, journal)
                yield from fh._crash_point("mid-flush")
                yield from fh._pfs_write("tcio.journal.payload", pos + len(head), rest, journal)
            self.pos += nbytes
            fh.stats.registry.counter("tcio.journal.records").inc(records)
            fh.stats.registry.counter("tcio.journal.bytes").inc(nbytes)
        yield from collectives.barrier(fh.comm)
        yield from fh._crash_point("pre-commit")
        # This barrier is what makes "pre-commit" mean what it says:
        # no rank may write the commit mark until every rank survived
        # its pre-commit crash point (otherwise resume order could let
        # rank 0 commit before the victim even reaches the point).
        yield from collectives.barrier(fh.comm)
        if fh.comm.rank == 0:
            commit = fh.env.pfs.create(commit_name(fh.name))
            mark = pack_commit(epoch, eof)
            yield from fh._pfs_write("tcio.journal.commit", commit.size, mark, commit)
            # Journal metrics live only under dotted registry names:
            # the legacy as_dict() key set is frozen by compat tests.
            fh.stats.registry.counter("tcio.journal.commits").inc()
            fh._trace.count("crash.journal.commits", 1)
        yield from collectives.barrier(fh.comm)
        yield from fh._crash_point("post-commit")
