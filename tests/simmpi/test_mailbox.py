"""The per-rank matching queues: order of matches and bounded growth."""

from collections import deque

from hypothesis import given, strategies as st

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


class TestLoneEntries:
    """A key with one queued entry holds the entry itself, not a deque; the
    matching order is that of one earliest-first scan over everything."""

    def test_a_key_is_a_deque_only_while_it_holds_two(self):
        box = Mailbox()
        first, second = _post(1, 7), _post(1, 7)
        box.add_posted(first)
        assert box.posted_by_key[(0, 1, 7)] is first
        box.add_posted(second)
        assert list(box.posted_by_key[(0, 1, 7)]) == [first, second]
        assert box.match_posted(_env(1, 7)) is first
        assert box.match_posted(_env(1, 7)) is second
        assert box.posted_by_key == {}
        env = _env(2, 5)
        box.add_unexpected(env)
        assert box.unexpected_by_key[(0, 2, 5)] is env
        assert box.match_unexpected(_post(2, 5)) is env
        assert box.unexpected_by_key == {}

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["post", "arrive"]),
                st.sampled_from([ANY_SOURCE, 0, 1]),
                st.sampled_from([ANY_TAG, 3, 4]),
            ),
            max_size=60,
        )
    )
    def test_matches_the_earliest_first_scan(self, ops):
        box = Mailbox()
        posted, arrived = [], []  # the model: live entries, oldest first
        for op, src, tag in ops:
            if op == "post":
                post = _post(src, tag)
                want = next((e for e in arrived if _fits(e, post)), None)
                got = box.match_unexpected(post)
                assert got is want
                if want is None:
                    box.add_posted(post)
                    posted.append(post)
                else:
                    arrived.remove(want)
            else:
                env = _env(0 if src == ANY_SOURCE else src, 3 if tag == ANY_TAG else tag)
                want = next((p for p in posted if _fits(env, p)), None)
                got = box.match_posted(env)
                assert got is want
                if want is None:
                    box.add_unexpected(env)
                    arrived.append(env)
                else:
                    posted.remove(want)
        assert box.n_posted == len(posted) and box.n_unexpected == len(arrived)
        for index in (box.posted_by_key, box.unexpected_by_key):
            assert all(not isinstance(q, deque) or len(q) > 0 for q in index.values())


def _fits(env, post):
    return post.src in (ANY_SOURCE, env.src) and post.tag in (ANY_TAG, env.tag)
