"""Unit tests for size/time formatting."""

from repro.util.units import GIB, KIB, MIB, format_size, format_time


class TestFormatSize:
    def test_round_trip_named_sizes(self):
        named = {48 * GIB: "48GB", 768 * MIB: "768MB", MIB: "1MB", 12 * KIB: "12KB"}
        for nbytes, text in named.items():
            assert format_size(nbytes) == text

    def test_bytes(self):
        assert format_size(17) == "17B"

    def test_fractional(self):
        assert format_size(int(1.5 * MIB)) == "1.50MB"


class TestFormatTime:
    def test_zero(self):
        assert format_time(0) == "0s"

    def test_microseconds(self):
        assert format_time(2.5e-6) == "2.5us"

    def test_milliseconds(self):
        assert format_time(0.0123) == "12.30ms"

    def test_seconds(self):
        assert format_time(3.5) == "3.50s"

    def test_minutes(self):
        assert format_time(600) == "10.0min"

    def test_negative(self):
        assert format_time(-3.5) == "-3.50s"

