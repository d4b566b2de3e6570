"""The Itsy node: power-mode machine, battery integration, death."""

import pytest

from repro.errors import SimulationError
from repro.hw import ItsyNode, SA1100_TABLE
from repro.hw.link import SerialLink
from repro.hw.power import PAPER_POWER_MODEL, PowerMode
from repro.sim import TraceRecorder
from tests.conftest import tiny_battery_factory


@pytest.fixture
def node(sim, tiny_battery):
    return ItsyNode(
        sim, "n1", tiny_battery, PAPER_POWER_MODEL, SA1100_TABLE,
        trace=TraceRecorder(),
    )


MAX = SA1100_TABLE.max
MIN = SA1100_TABLE.min


class TestStateMachine:
    def test_starts_idle_at_min(self, node):
        assert node.mode is PowerMode.IDLE
        assert node.level is MIN

    def test_set_state_changes_current(self, sim, node):
        node.set_state(PowerMode.COMPUTATION, MAX)
        assert node.current_ma == pytest.approx(130.0)

    def test_battery_integrated_lazily(self, sim, node):
        node.set_state(PowerMode.COMPUTATION, MAX)
        sim.timeout(10.0)
        sim.run(until=10.0)
        delivered_before = node.battery.delivered_mah
        node.set_state(PowerMode.IDLE, MIN)  # closes the segment
        assert node.battery.delivered_mah > delivered_before
        assert node.battery.delivered_mah == pytest.approx(130.0 * 10.0 / 3600.0)

    def test_trace_records_segments(self, sim, node):
        node.set_state(PowerMode.COMPUTATION, MAX, "proc")
        sim.timeout(5.0)
        sim.run(until=5.0)
        node.set_state(PowerMode.IDLE, MIN)
        segs = node.trace.segments("n1")
        assert len(segs) == 1
        assert segs[0].activity == "proc"
        assert segs[0].duration == pytest.approx(5.0)
        assert segs[0].current_ma == pytest.approx(130.0)

    def test_invalid_level_rejected(self, node):
        from repro.errors import ConfigurationError
        from repro.hw.dvs import FrequencyLevel

        with pytest.raises(ConfigurationError):
            node.set_state(PowerMode.IDLE, FrequencyLevel(100.0, 1.0))

    def test_equal_valued_levels_switch_once(self, sim, tiny_battery):
        """A level equal to a table level but a distinct object is the
        same operating point: one switch, one dvs.switch record, and the
        node holds the table's own object."""
        from repro.hw.dvs import FrequencyLevel
        from repro.obs import EventLog

        log = EventLog()
        node = ItsyNode(
            sim, "n1", tiny_battery, PAPER_POWER_MODEL, SA1100_TABLE, obs=log
        )
        for _ in range(3):
            node.set_state(PowerMode.COMPUTATION, FrequencyLevel(206.4, 1.393))
        assert node.level_switches == 1
        assert node.level is MAX
        switches = [e for e in log if e.kind == "dvs.switch"]
        assert [(e.data["from_mhz"], e.data["to_mhz"]) for e in switches] == [
            (59.0, 206.4)
        ]
        assert node.current_ma == PAPER_POWER_MODEL.current_ma(
            PowerMode.COMPUTATION, MAX
        )

    def test_currents_follow_level_and_mode(self, node):
        """Every (mode, level) pair draws the power model's current."""
        for level in SA1100_TABLE:
            for mode in (PowerMode.IDLE, PowerMode.COMMUNICATION,
                         PowerMode.COMPUTATION, PowerMode.SLEEP):
                node.set_state(mode, level)
                assert node.current_ma == PAPER_POWER_MODEL.current_ma(mode, level)


    def test_stored_death_target_is_always_fresh(self):
        """set_state skips the battery call after a zero-length segment
        at an unchanged draw; the target it reuses must equal a fresh
        computation at every transition of a run to exhaustion."""
        from repro.core.policies import DVSDuringIOPolicy, PinnedLevelsPolicy
        from repro.pipeline.engine import PipelineEngine
        from tests.pipeline.test_engine import make_config

        engine = PipelineEngine(
            make_config(
                cuts=(1,),
                policy=DVSDuringIOPolicy(PinnedLevelsPolicy([73.7, 118.0])),
                recovery=True,
            )
        )
        checked = []
        for node in engine.nodes.values():

            def set_state(*args, _node=node, _set=node.set_state, **kwargs):
                _set(*args, **kwargs)
                bound = _node.battery.time_to_death_lower_bound(_node._current_ma)
                assert _node._death_target == _node._segment_start + bound
                checked.append(_node.name)

            node.set_state = set_state
        result = engine.run()
        assert result.end_reason == "all-dead"
        assert len(checked) > 1000


class TestCompute:
    def test_compute_scales_with_level(self, sim, node):
        def body(node):
            yield from node.compute(1.0, SA1100_TABLE.level_at(103.2))

        p = node.spawn(body(node))
        sim.run(until=p)
        assert sim.now == pytest.approx(2.0)

    def test_compute_returns_to_idle(self, sim, node):
        def body(node):
            yield from node.compute(0.1, MAX)

        p = node.spawn(body(node))
        sim.run(until=p)
        assert node.mode is PowerMode.IDLE


class TestDeath:
    def test_death_during_constant_load(self, sim, node):
        def body(node):
            while True:
                yield from node.compute(1.0, MAX)

        node.spawn(body(node))
        expected = node.battery.time_to_death(130.0)
        sim.run()
        assert node.is_dead
        assert node.death_time_s == pytest.approx(expected, rel=1e-6)

    def test_died_event_fires(self, sim, node):
        def body(node):
            while True:
                yield from node.compute(1.0, MAX)

        node.spawn(body(node))
        sim.run()
        assert node.died.processed
        assert node.died.value.node == "n1"

    def test_attached_process_interrupted(self, sim, node):
        witnessed = []

        def body(node):
            try:
                while True:
                    yield from node.compute(1.0, MAX)
            finally:
                witnessed.append(node.sim.now)

        node.spawn(body(node))
        sim.run()
        assert witnessed == [node.death_time_s]

    def test_dead_node_rejects_set_state(self, sim, node):
        def body(node):
            while True:
                yield from node.compute(1.0, MAX)

        node.spawn(body(node))
        sim.run()
        with pytest.raises(SimulationError):
            node.set_state(PowerMode.IDLE)

    def test_death_mid_duty_cycle_is_exact(self, sim, node):
        """Death must interrupt a long segment, not wait for its end."""

        def body(node):
            while True:
                yield from node.compute(10.0, MAX)
                yield from node.idle_for(5.0)

        node.spawn(body(node))
        sim.run()
        assert node.is_dead
        # The battery's available well must be empty at death.
        assert node.battery.charge_fraction() < 1.0
        assert node.battery.available_mas == pytest.approx(0.0, abs=1e-3)

    def test_open_link_offers_cancelled_on_death(self, sim, node):
        link = SerialLink(sim, "n1", "peer")

        def body(node, link):
            while True:
                grant = link.offer_send("data", 100, frm="n1")
                tr = yield from node.transfer(link, grant, MIN, "send")
                del tr

        node.spawn(body(node, link))

        # Drain the node quickly with a parallel compute-heavy process...
        def burner(node):
            while True:
                yield from node.compute(50.0, MAX)

        node.spawn(burner(node))
        sim.run()
        assert node.is_dead
        # Peer arriving after death must not rendezvous with the corpse.
        matched = []

        def late_peer(sim, link):
            grant = link.offer_recv(to="peer")
            result = yield sim.any_of([grant, sim.timeout(1.0)])
            matched.append(grant.triggered)

        sim.process(late_peer(sim, link))
        sim.run()
        assert matched == [False]


class TestTransfer:
    def test_transfer_power_modes(self, sim, node):
        link = SerialLink(sim, "n1", "peer")
        modes = []

        def peer(sim, link):
            yield sim.timeout(1.0)
            tr = yield link.offer_recv(to="peer")
            yield tr.done

        def body(node, link):
            grant = link.offer_send("data", 8000, frm="n1")
            modes.append(node.activity)  # waiting
            tr = yield from node.transfer(link, grant, MIN, "send")
            modes.append(node.mode)
            return tr

        sim.process(peer(sim, link))
        p = node.spawn(body(node, link))
        sim.run()
        assert p.ok
        # While waiting the node idles; after completion it returns to idle.
        assert modes[-1] is PowerMode.IDLE
        segs = [s for s in node.trace.segments("n1") if s.activity == "send"]
        assert len(segs) == 1
        assert segs[0].start == pytest.approx(1.0)
        assert segs[0].duration == pytest.approx(0.09 + 8000 * 8 / 80_000)

    def test_transfer_or_timeout_times_out(self, sim, node):
        link = SerialLink(sim, "n1", "peer")

        def body(node, link):
            grant = link.offer_send("data", 100, frm="n1")
            tr = yield from node.transfer_or_timeout(link, grant, MIN, "send", 3.0)
            return tr

        p = node.spawn(body(node, link))
        sim.run(until=p)
        assert p.value is None
        assert sim.now == pytest.approx(3.0)
        assert link.pending_sends("n1") == 0  # offer withdrawn

    def test_transfer_or_timeout_success(self, sim, node):
        link = SerialLink(sim, "n1", "peer")

        def peer(sim, link):
            tr = yield link.offer_recv(to="peer")
            yield tr.done

        def body(node, link):
            grant = link.offer_send("data", 100, frm="n1")
            tr = yield from node.transfer_or_timeout(link, grant, MIN, "send", 3.0)
            return tr.message

        sim.process(peer(sim, link))
        p = node.spawn(body(node, link))
        sim.run(until=p)
        assert p.value == "data"

    def test_comm_delay_draws_comm_current(self, sim, node):
        def body(node):
            yield from node.comm_delay(1.0, MIN, "ack")

        node.spawn(body(node))
        sim.run()
        segs = [s for s in node.trace.segments("n1") if s.activity == "ack"]
        assert len(segs) == 1
        expected = PAPER_POWER_MODEL.current_ma(PowerMode.COMMUNICATION, MIN)
        assert segs[0].current_ma == pytest.approx(expected)


class TestReconfigure:
    def test_reconfigure_costs_computation_power(self, sim, node):
        def body(node):
            yield from node.reconfigure(0.5, "rotation")

        node.spawn(body(node))
        sim.run()
        segs = [s for s in node.trace.segments("n1") if s.activity == "reconfig"]
        assert len(segs) == 1
        assert segs[0].duration == pytest.approx(0.5)

    def test_zero_reconfigure_is_noop(self, sim, node):
        def body(node):
            yield from node.reconfigure(0.0)
            yield sim.timeout(0.0)

        node.spawn(body(node))
        sim.run()
        assert not [s for s in node.trace.segments("n1") if s.activity == "reconfig"]
