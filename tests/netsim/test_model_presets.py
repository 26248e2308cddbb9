"""NetworkSpec presets and derived quantities."""

from repro.netsim.model import INSTANT, NetworkSpec


class TestInstantPreset:
    def test_validates(self):
        INSTANT.validate()

    def test_all_overheads_zero(self):
        assert INSTANT.latency == 0.0
        assert INSTANT.per_message_overhead == 0.0
        assert INSTANT.connection_setup == 0.0
        assert INSTANT.match_overhead == 0.0
        assert INSTANT.match_queue_overhead == 0.0
        assert INSTANT.rma_epoch_overhead == 0.0
        assert INSTANT.rma_message_overhead == 0.0

    def test_effectively_infinite_bandwidth(self):
        assert 10**12 / INSTANT.link_bandwidth < 1e-5


class TestCalibratedPreset:
    def test_rma_cheaper_than_two_sided(self):
        """The NIC-offload asymmetry the Fig. 5 mechanism rests on."""
        from repro.cluster.lonestar import make_lonestar

        net = make_lonestar().network
        assert net.rma_message_overhead < net.per_message_overhead
        assert net.rma_shared_epoch_overhead < net.rma_epoch_overhead
        assert net.match_overhead > 0
        assert net.match_queue_overhead > 0

    def test_storage_write_overhead_exceeds_read(self):
        from repro.cluster.lonestar import make_lonestar

        fs = make_lonestar().lustre
        assert fs.ost_write_overhead > fs.ost_read_overhead
        assert fs.ost_read_bandwidth > fs.ost_write_bandwidth
