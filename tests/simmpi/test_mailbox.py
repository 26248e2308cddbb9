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
