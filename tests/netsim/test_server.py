"""Tests for the FIFO reservation server."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim.server import ReservationServer
from repro.util.errors import SimulationError


class TestReservationServer:
    def test_idle_server_starts_immediately(self):
        s = ReservationServer("s", rate=100.0)
        assert s.reserve(5.0, 200) == pytest.approx(7.0)

    def test_back_to_back_requests_queue(self):
        s = ReservationServer("s", rate=100.0)
        t1 = s.reserve(0.0, 100)
        t2 = s.reserve(0.0, 100)
        assert t1 == pytest.approx(1.0)
        assert t2 == pytest.approx(2.0)

    def test_per_request_overhead(self):
        s = ReservationServer("s", rate=100.0, per_request=0.5)
        assert s.reserve(0.0, 100) == pytest.approx(1.5)

    def test_overhead_override(self):
        s = ReservationServer("s", rate=100.0, per_request=0.5)
        assert s.reserve(0.0, 100, overhead=0.0) == pytest.approx(1.0)

    def test_gap_leaves_idle_time(self):
        s = ReservationServer("s", rate=100.0)
        s.reserve(0.0, 100)  # busy until 1.0
        assert s.reserve(10.0, 100) == pytest.approx(11.0)

    def test_rejects_zero_rate(self):
        with pytest.raises(SimulationError):
            ReservationServer("s", rate=0.0)

    def test_rejects_negative_bytes(self):
        s = ReservationServer("s", rate=1.0)
        with pytest.raises(SimulationError):
            s.reserve(0.0, -1)

    @given(
        st.lists(
            st.tuples(st.floats(0, 100), st.integers(0, 10_000)), min_size=1, max_size=30
        )
    )
    def test_finish_times_are_monotone_for_sorted_arrivals(self, reqs):
        s = ReservationServer("s", rate=997.0, per_request=0.001)
        finishes = []
        for arrival, nbytes in sorted(reqs):
            finishes.append(s.reserve(arrival, nbytes))
        assert finishes == sorted(finishes)
        # Conservation: total busy time equals sum of service demands.
        expected = sum(0.001 + n / 997.0 for _, n in reqs)
        assert s.busy_time == pytest.approx(expected)
