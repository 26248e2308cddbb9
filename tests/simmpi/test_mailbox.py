"""The per-rank matching queues: order of matches and bounded growth."""

from repro.simmpi import ANY_SOURCE, ANY_TAG, run_mpi
from repro.simmpi.comm import Mailbox, _Envelope, _PostedRecv
from tests.conftest import make_test_cluster


def _post(src, tag, context=0):
    return _PostedRecv(src, tag, context, req=None)


def _env(src, tag, context=0):
    return _Envelope(src, tag, context, payload=b"", size=0)


class TestPostedWildQueue:
    def test_matched_wildcards_leave_the_queue(self):
        box = Mailbox()
        for i in range(10_000):
            box.add_posted(_post(ANY_SOURCE, 7))
            assert box.match_posted(_env(i % 5, 7)) is not None
            assert len(box.posted_wild) <= 1
        assert box.n_posted == 0

    def test_a_live_head_keeps_later_matched_entries_until_it_matches(self):
        box = Mailbox()
        blocker = _post(ANY_SOURCE, 99)  # never matched by the tag-7 traffic
        box.add_posted(blocker)
        for _ in range(100):
            box.add_posted(_post(ANY_SOURCE, 7))
            assert box.match_posted(_env(0, 7)) is not None
        assert box.match_posted(_env(3, 99)) is blocker
        box.add_posted(_post(ANY_SOURCE, 7))
        assert box.match_posted(_env(0, 7)) is not None
        assert len(box.posted_wild) <= 1

    def test_earliest_posted_wins_across_exact_and_wildcard_queues(self):
        box = Mailbox()
        posts = [
            _post(ANY_SOURCE, 7),  # 0 wildcard source
            _post(2, 7),           # 1 exact
            _post(2, ANY_TAG),     # 2 wildcard tag
            _post(2, 7),           # 3 exact
            _post(ANY_SOURCE, ANY_TAG),  # 4
        ]
        for post in posts:
            box.add_posted(post)
        matched = [box.match_posted(_env(2, 7)) for _ in range(5)]
        assert [posts.index(m) for m in matched] == [0, 1, 2, 3, 4]
        assert box.match_posted(_env(2, 7)) is None

    def test_other_context_and_source_are_skipped_not_dropped(self):
        box = Mailbox()
        other_ctx = _post(ANY_SOURCE, 7, context=1)
        any_tag_from_3 = _post(3, ANY_TAG)
        box.add_posted(other_ctx)
        box.add_posted(any_tag_from_3)
        assert box.match_posted(_env(2, 7)) is None
        assert box.match_posted(_env(3, 5)) is any_tag_from_3
        assert box.match_posted(_env(2, 7, context=1)) is other_ctx

    def test_any_source_server_loop_stays_bounded_end_to_end(self):
        rounds = 300
        sizes = []

        def main(env):
            if env.rank == 0:
                for _ in range(rounds * (env.size - 1)):
                    yield from env.comm.recv(ANY_SOURCE, 5)
                    sizes.append(len(env.world.mailbox(0).posted_wild))
            else:
                for i in range(rounds):
                    yield from env.comm.send(bytes([i % 251]), 0, tag=5)

        run_mpi(4, main, cluster=make_test_cluster())
        assert len(sizes) == rounds * 3 and max(sizes) <= 2


class TestMatchedEntriesLeave:
    def test_exact_receives_of_early_sends_leave_nothing_behind(self):
        sends = 200
        boxes = []

        def main(env):
            if env.rank == 1:
                for i in range(sends):
                    yield from env.comm.send(bytes([i % 251]), 0, tag=i % 3)
                return
            env.compute(1.0)  # every send arrives before its receive
            for i in range(sends):
                yield from env.comm.recv(1, i % 3)
            boxes.append(env.world.mailbox(0))

        run_mpi(2, main, cluster=make_test_cluster())
        (box,) = boxes
        assert len(box.unexpected_all) == 0
        assert box.unexpected_by_key == {} and box.n_unexpected == 0

    def test_drained_keys_leave_the_indexes(self):
        box = Mailbox()
        for tag in range(50):
            box.add_posted(_post(1, tag))
            assert box.match_posted(_env(1, tag)) is not None
            box.add_unexpected(_env(2, tag))
            assert box.match_unexpected(_post(2, tag)) is not None
        assert box.posted_by_key == {} and box.unexpected_by_key == {}
        assert not box.unexpected_all

    def test_wildcard_receives_drain_the_exact_index_too(self):
        box = Mailbox()
        for i in range(100):
            box.add_unexpected(_env(i % 4, 7))
        for _ in range(100):
            assert box.match_unexpected(_post(ANY_SOURCE, 7)) is not None
        assert box.unexpected_by_key == {} and not box.unexpected_all
        assert box.n_unexpected == 0
