"""Survive-and-complete fault tolerance (``TcioConfig.ft``): rank failures
at collective points shrink the communicator and complete the flush over
the survivors instead of aborting. Owns the shadow deposits and the one
guard loop; a recovery round swaps the handle's ``comm`` / ``mapping`` /
``level2`` for the survivor partition.
"""

from __future__ import annotations

import numpy as np

from repro.crash.journal import rank_journal, scan_journals
from repro.simmpi import collectives
from repro.tcio.level2 import concat_deposits
from repro.tcio.mapping import SegmentMapping
from repro.util.errors import RankUnreachable


class Survive:
    """One write handle's survive-and-complete state."""

    def __init__(self, fh):
        self.fh = fh
        #: This rank's own deposits of the current (uncommitted) epoch as
        #: drained, ``{gseg: [(disps, lens, payload), ...]}`` — kept so a
        #: survivor can re-deposit them after a dead segment owner's volatile
        #: slot is re-partitioned away. Cleared once the epoch commits.
        self.shadow: dict[int, list[tuple]] = {}

    def guard(self, attempt, *args):
        """Run coroutine ``attempt(*args)`` to completion over whoever
        survives (coroutine) — the one place ``RankUnreachable`` is caught.

        After a failure the survivors shrink, re-partition level 2 and
        rerun the attempt, whose stages are all idempotent over the shared
        directory (re-journaled records supersede, re-writebacks land the
        same bytes, a deposit retries against the new owner). A cascading
        failure during the round itself restarts the round on the freshly
        shrunken survivor set.
        """
        failed = False
        while True:
            try:
                if failed:
                    yield from self._round()
                    failed = False
                return (yield from attempt(*args))
            except RankUnreachable:
                failed = True

    def deposit(self, gseg: int, disps, lens, payload: bytes):
        """The guarded level-1 drain (coroutine; the handle's ``_deposit``)."""
        return self.guard(self._shadowed_push, gseg, disps, lens, payload)

    def _shadowed_push(self, gseg: int, disps, lens, payload: bytes):
        fh = self.fh
        self.shadow.setdefault(gseg, []).append((disps, lens, payload))
        return (fh._degrade.deposit if fh._degrade else fh.level2.push_blocks)(
            gseg, disps, lens, payload
        )

    def collective_point(self, final: bool):
        """The guarded ``flush`` / ``close`` (collective coroutine)."""
        yield from self.guard(self.fh._collective_point, final)
        # Everything deposited so far is durable (committed + written
        # back): survivors will never need to re-deposit it.
        self.shadow.clear()

    def join(self):
        """``TcioFile.ft_join_recovery``: recover until every member of the
        handle communicator is alive (collective coroutine)."""
        return self.guard(self._all_alive)

    def _all_alive(self):
        fh = self.fh
        dead = set(fh.comm.group_world_ranks()) & fh.env.world.dead_ranks
        if dead:
            raise RankUnreachable(fh.env.rank, min(dead), "tcio.ft_join_recovery")
        yield from ()  # nothing to wait for; a coroutine like every attempt

    def _round(self):
        """One survive-and-complete recovery round (collective coroutine).

        ULFM-style: every survivor lands here after catching
        :class:`RankUnreachable` (write handles reach a collective point —
        flush/close/deposit — within bounded work, so nobody is left
        behind). The round

        1. shrinks the communicator to the re-numbered survivors,
        2. picks a resume epoch strictly past every journaled epoch, so
           the survivor epoch's records supersede any stale record a
           later commit mark would otherwise resurrect,
        3. replays the dead ranks' committed-but-not-written-back journal
           records into the data file (what ``crash.recover`` would do,
           but online and charged through the PFS client),
        4. rebuilds the level-2 partition over the survivors: alive old
           owners migrate their full slot images; dead-owned segments are
           rebased from the (replayed) file image and the survivors'
           shadow deposits are re-pushed; segments inside eof that no one
           ever deposited (the dead rank's level-1-only writes) are
           adopted so the next epoch keeps fsck's byte accounting
           complete,
        5. swaps the handle onto the new communicator/mapping/buffer.

        The only data lost is what existed solely in dead volatile
        memory: the dead ranks' level-1 buffers and their uncommitted
        own-slot deposits.
        """
        fh = self.fh
        d = fh.directory
        world = fh.env.world
        memory = world.memory
        old_members = fh.comm.group_world_ranks()
        with fh._tracer.span("tcio.survive", file=fh.name):
            new_comm = yield from fh.comm.shrink()
            fh._trace.count("tcio.ft.survives", 1)

            # -- resume epoch + committed replay set --------------------
            journal_of = {rank_journal(fh.name, m): m for m in old_members}
            scan = scan_journals(fh.env.pfs, fh.name, journal_of)
            d.committed_epoch = max(
                [d.committed_epoch, scan.committed] + [rec.epoch for _, rec in scan.records]
            )
            replay = [  # committed dead-rank records never written back
                rec
                for jname, rec in scan.records
                if journal_of[jname] in world.dead_ranks
                and rec.epoch <= scan.committed
                and rec.gseg not in d.flushed
            ]
            if new_comm.rank == 0:
                for rec in replay:
                    with fh._tracer.span("tcio.ft.replay", segment=rec.gseg, epoch=rec.epoch):
                        for i, (lo, _hi) in enumerate(rec.extents):
                            yield from fh._pfs_write("tcio.ft.replay", lo, rec.piece(i))
                    fh._trace.count("tcio.ft.replayed_bytes", rec.nbytes)
            yield from collectives.barrier(new_comm)

            # -- rebuild the level-2 partition over the survivors -------
            seg = fh.mapping.segment_size
            total_segments = -(-d.eof // seg) if d.eof else 0

            def limit(g: int) -> int:
                return min(seg, d.eof - g * seg)  # g's bytes inside eof

            pending = sorted(g for g in d.dirty if g not in d.flushed and limit(g) > 0)
            abandoned = [
                g for g in range(total_segments) if g not in d.dirty and g not in d.flushed
            ]
            # Preserve the aggregate capacity of the old partition: the
            # handle stays open after recovery (delegate failover keeps
            # writing), so the survivors must be able to hold every
            # segment the *full* job was provisioned for, not just the
            # eof reached so far.
            per_rank = max(
                -(-max(total_segments, 1) // new_comm.size),
                -(-fh.config.segments_per_process * len(old_members) // new_comm.size),
            )
            new_mapping = SegmentMapping(seg, new_comm.size)
            new_alloc = memory.allocate(fh.env.rank, per_rank * seg, "tcio.level2")
            try:
                old_level2, old_mapping = fh.level2, fh.mapping
                new_level2 = yield from fh._create_level2(new_comm, new_mapping, per_rank)

                def old_owner(g: int) -> int:
                    return old_members[old_mapping.owner_of_segment(g)]

                def rebase(g: int):
                    """Fill *g*'s new slot from the file image (coroutine)."""
                    base = yield from fh._pfs_read("tcio.ft.rebase", g * seg, limit(g))
                    new_level2.local_slot(g)[: len(base)] = np.frombuffer(base, dtype=np.uint8)

                for g in pending:
                    if old_owner(g) in world.dead_ranks:
                        # Dead owner: its slot is gone. The new owner
                        # rebases from the file image (current after the
                        # committed replay above); the shadow replay below
                        # re-applies every survivor's deposits.
                        if new_mapping.owner_of_segment(g) == new_comm.rank:
                            yield from rebase(g)
                    elif old_owner(g) == fh.env.rank:
                        # Alive owner: hand the full slot image (every
                        # rank's deposits, the dead one's included) to the
                        # segment's new owner.
                        payload = old_level2.local_slot(g)[: limit(g)].tobytes()
                        yield from new_level2.push_blocks(g, (0,), (len(payload),), payload)
                yield from collectives.barrier(new_comm)
                shadow_bytes = 0
                for g, deposits in sorted(self.shadow.items()):
                    if g in d.dirty and g not in d.flushed and old_owner(g) in world.dead_ranks:
                        disps, lens, payload = concat_deposits(deposits)
                        yield from new_level2.push_blocks(g, disps, lens, payload)
                        shadow_bytes += len(payload)
                if shadow_bytes:
                    fh._trace.count("tcio.ft.shadow_bytes", shadow_bytes)
                abandoned_bytes = 0
                for g in abandoned:  # inside eof by construction
                    if new_mapping.owner_of_segment(g) == new_comm.rank:
                        yield from rebase(g)
                        d.dirty.add(g)
                        abandoned_bytes += limit(g)
                if abandoned_bytes:
                    fh._trace.count("tcio.ft.abandoned_bytes", abandoned_bytes)
                yield from collectives.barrier(new_comm)
            except BaseException:
                memory.free(new_alloc)
                raise

            # -- swap the handle onto the survivor partition ------------
            fh.comm = new_comm
            fh.mapping = new_mapping
            fh.level2 = new_level2
            d.nranks = new_comm.size
            d.loaded.clear()  # old slots are gone; reads must reload
            memory.free(fh._allocs[1])
            fh._allocs[1] = new_alloc
            old_level2.window.free()
            if fh._degrade is not None:
                # Old-communicator rank ids are meaningless now.
                fh._degrade.unreachable.clear()
