"""Tests for the interconnect fabric timing model."""

import pytest

from repro.netsim.fabric import Fabric
from repro.netsim.model import NetworkSpec
from repro.sim.engine import Engine


def make_fabric(**overrides):
    params = dict(
        link_bandwidth=1000.0,
        latency=0.5,
        per_message_overhead=0.1,
        connection_setup=2.0,
        fabric_bandwidth=4000.0,
        memcpy_bandwidth=8000.0,
        eager_limit=100,
        match_overhead=0.0,
        match_queue_overhead=0.0,
        rma_message_overhead=0.01,
    )
    params.update(overrides)
    spec = NetworkSpec(**params)
    engine = Engine()
    # ranks 0,1 on node 0; ranks 2,3 on node 1
    fabric = Fabric(engine, spec, node_of=[0, 0, 1, 1])
    return engine, fabric


class TestDeliveryTime:
    def test_internode_pays_setup_latency_and_bandwidth(self):
        engine, fabric = make_fabric()
        t = fabric.delivery_time(0, 2, 1000)
        # setup 2.0 + tx (0.1 + 1.0) + core (0.25) + latency 0.5 + rx (0.1 + 1.0)
        assert t == pytest.approx(2.0 + 1.1 + 0.25 + 0.5 + 1.1)

    def test_second_message_skips_setup(self):
        engine, fabric = make_fabric()
        t1 = fabric.delivery_time(0, 2, 0)
        t2 = fabric.delivery_time(0, 2, 0)
        assert len(fabric._connected) == 1
        assert t2 - t1 < 2.0  # no second setup charge

    def test_connection_pairs_are_directional_rank_pairs(self):
        engine, fabric = make_fabric()
        fabric.delivery_time(0, 2, 0)
        fabric.delivery_time(2, 0, 0)
        fabric.delivery_time(1, 2, 0)
        assert len(fabric._connected) == 3

    def test_intranode_skips_nic_and_core(self):
        engine, fabric = make_fabric()
        t = fabric.delivery_time(0, 1, 8000)
        assert t == pytest.approx(0.1 + 1.0)  # memcpy server only

    def test_rma_messages_pay_reduced_port_overhead(self):
        engine, fabric = make_fabric()
        t_two_sided = fabric.delivery_time(0, 2, 0)
        engine2, fabric2 = make_fabric()
        t_rma = fabric2.delivery_time(0, 2, 0, rma=True)
        assert t_rma < t_two_sided

    def test_senders_serialize_at_their_nic(self):
        engine, fabric = make_fabric(connection_setup=0.0)
        t1 = fabric.delivery_time(0, 2, 1000)
        t2 = fabric.delivery_time(0, 3, 1000)
        assert t2 > t1  # same tx port, FIFO

    def test_core_is_shared_across_senders(self):
        engine, fabric = make_fabric(connection_setup=0.0, latency=0.0, per_message_overhead=0.0)
        fabric.delivery_time(0, 2, 4000)
        t2 = fabric.delivery_time(1, 3, 4000)
        # both fit their own NICs in 4s, but the core serializes 8000 bytes
        assert t2 >= 2.0

    def test_transfer_schedules_callback(self):
        engine, fabric = make_fabric()
        seen = []
        fabric.transfer(0, 2, 100, lambda: seen.append(engine.now))
        engine.run()
        assert len(seen) == 1 and seen[0] > 0

    def test_rejects_unknown_rank(self):
        from repro.util.errors import SimulationError

        engine, fabric = make_fabric()
        with pytest.raises(SimulationError):
            fabric.delivery_time(0, 99, 10)

    def test_rejects_negative_size(self):
        from repro.util.errors import SimulationError

        engine, fabric = make_fabric()
        with pytest.raises(SimulationError):
            fabric.delivery_time(0, 2, -5)


class TestNetworkSpecValidation:
    def test_default_spec_is_valid(self):
        NetworkSpec().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("link_bandwidth", 0.0),
            ("latency", -1.0),
            ("connection_setup", -1.0),
            ("match_overhead", -1.0),
            ("rma_epoch_overhead", -1.0),
            ("eager_limit", -1),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        from dataclasses import replace

        with pytest.raises(ValueError):
            replace(NetworkSpec(), **{field: value}).validate()
