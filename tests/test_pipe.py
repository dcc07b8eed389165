"""Pipe: delay, serialization, queueing, injection, ordering."""

import random

import pytest

from repro.errors import NetworkError
from repro.faults import parse_faults
from repro.harness.config import PolicyName, ScenarioConfig
from repro.harness.runner import run_scenario
from repro.net.addr import Endpoint
from repro.net.packet import HEADER_BYTES, Packet, PacketSlab
from repro.net.pipe import Pipe
from repro.units import MICROSECONDS, MILLISECONDS, serialization_delay


def make_packet(payload=0):
    return Packet(src=Endpoint("a", 1), dst=Endpoint("b", 2), payload_len=payload)


def connected_pipe(sim, **kwargs):
    pipe = Pipe(sim, "a->b", **kwargs)
    arrivals = []
    pipe.connect(lambda pkt: arrivals.append((sim.now, pkt)))
    return pipe, arrivals


class TestPropagation:
    def test_ideal_pipe_delivers_after_prop_delay(self, sim):
        pipe, arrivals = connected_pipe(sim, prop_delay=500, bandwidth_bps=None)
        pipe.send(make_packet())
        sim.run()
        assert [t for t, _ in arrivals] == [500]

    def test_send_without_receiver_rejected(self, sim):
        pipe = Pipe(sim, "x", prop_delay=0)
        with pytest.raises(NetworkError):
            pipe.send(make_packet())

    def test_negative_prop_delay_rejected(self, sim):
        with pytest.raises(NetworkError):
            Pipe(sim, "x", prop_delay=-1)


class TestSerialization:
    def test_serialization_adds_to_latency(self, sim):
        bw = 10**9
        pipe, arrivals = connected_pipe(sim, prop_delay=1000, bandwidth_bps=bw)
        pkt = make_packet(payload=934)  # 1000 bytes on the wire
        pipe.send(pkt)
        sim.run()
        expect = serialization_delay(pkt.size_bytes, bw) + 1000
        assert arrivals[0][0] == expect

    def test_back_to_back_packets_queue_on_wire(self, sim):
        bw = 10**9
        pipe, arrivals = connected_pipe(sim, prop_delay=0, bandwidth_bps=bw)
        pkt = make_packet(payload=934)
        ser = serialization_delay(pkt.size_bytes, bw)
        pipe.send(make_packet(payload=934))
        pipe.send(make_packet(payload=934))
        sim.run()
        times = [t for t, _ in arrivals]
        assert times == [ser, 2 * ser]

    def test_wire_idles_between_spaced_sends(self, sim):
        bw = 10**9
        pipe, arrivals = connected_pipe(sim, prop_delay=0, bandwidth_bps=bw)
        ser = serialization_delay(make_packet().size_bytes, bw)
        pipe.send(make_packet())
        sim.run()
        assert arrivals[0][0] == ser
        # A send long after the wire went idle serializes afresh from `now`.
        sim.schedule_at(10 * ser, lambda: pipe.send(make_packet()))
        sim.run()
        assert arrivals[1][0] == 11 * ser


class TestQueueing:
    def test_tail_drop_beyond_capacity(self, sim):
        pipe, arrivals = connected_pipe(
            sim, prop_delay=0, bandwidth_bps=1000, queue_capacity=2
        )
        results = [pipe.send(make_packet()) for _ in range(4)]
        assert results == [True, True, False, False]
        assert pipe.stats.packets_dropped == 2
        sim.run()
        assert len(arrivals) == 2

    def test_queue_drains_over_time(self, sim):
        pipe, arrivals = connected_pipe(
            sim, prop_delay=0, bandwidth_bps=10**9, queue_capacity=1
        )
        assert pipe.send(make_packet())
        assert not pipe.send(make_packet())  # full
        sim.run()
        assert pipe.send(make_packet())  # drained
        sim.run()
        assert len(arrivals) == 2

    def test_infinite_bandwidth_never_drops(self, sim):
        pipe, arrivals = connected_pipe(
            sim, prop_delay=10, bandwidth_bps=None, queue_capacity=1
        )
        for _ in range(100):
            assert pipe.send(make_packet())
        sim.run()
        assert len(arrivals) == 100

    def test_capacity_validation(self, sim):
        with pytest.raises(NetworkError):
            Pipe(sim, "x", prop_delay=0, queue_capacity=0)


class TestExtraDelay:
    def test_injection_applies_to_subsequent_packets(self, sim):
        pipe, arrivals = connected_pipe(sim, prop_delay=100, bandwidth_bps=None)
        pipe.send(make_packet())
        sim.run()
        pipe.set_extra_delay(1000)
        pipe.send(make_packet())
        sim.run()
        assert arrivals[0][0] == 100
        assert arrivals[1][0] - arrivals[0][0] == 1100

    def test_injection_clears(self, sim):
        pipe, arrivals = connected_pipe(sim, prop_delay=100, bandwidth_bps=None)
        pipe.set_extra_delay(1000)
        pipe.set_extra_delay(0)
        pipe.send(make_packet())
        sim.run()
        assert arrivals[0][0] == 100

    def test_negative_injection_rejected(self, sim):
        pipe, _ = connected_pipe(sim, prop_delay=0)
        with pytest.raises(NetworkError):
            pipe.set_extra_delay(-5)

    def test_extra_delay_property(self, sim):
        pipe, _ = connected_pipe(sim, prop_delay=0)
        pipe.set_extra_delay(123)
        assert pipe.extra_delay == 123


class TestJitterAndOrdering:
    def test_jitter_added(self, sim):
        pipe, arrivals = connected_pipe(
            sim, prop_delay=100, bandwidth_bps=None, jitter=lambda: 50
        )
        pipe.send(make_packet())
        sim.run()
        assert arrivals[0][0] == 150

    def test_jitter_never_reorders(self, sim):
        jitters = iter([10_000, 0])
        pipe, arrivals = connected_pipe(
            sim, prop_delay=100, bandwidth_bps=None, jitter=lambda: next(jitters)
        )
        pipe.send(make_packet())
        pipe.send(make_packet())
        sim.run()
        times = [t for t, _ in arrivals]
        # Second packet clamped to the first's (jittered) arrival.
        assert times[0] == 10_100
        assert times[1] == 10_100

    def test_negative_jitter_rejected(self, sim):
        pipe, _ = connected_pipe(
            sim, prop_delay=0, bandwidth_bps=None, jitter=lambda: -1
        )
        with pytest.raises(NetworkError):
            pipe.send(make_packet())
            sim.run()


class TestStats:
    def test_byte_and_packet_counters(self, sim):
        pipe, _ = connected_pipe(sim, prop_delay=0, bandwidth_bps=None)
        pkt = make_packet(payload=100)
        pipe.send(pkt)
        sim.run()
        assert pipe.stats.packets_sent == 1
        assert pipe.stats.packets_delivered == 1
        assert pipe.stats.bytes_sent == HEADER_BYTES + 100
        assert pipe.stats.bytes_delivered == HEADER_BYTES + 100


class TestDeliveryPump:
    """One outstanding engine event per pipe, byte-identical delivery."""

    def test_heap_holds_one_event_for_many_in_flight(self, sim):
        pipe, arrivals = connected_pipe(sim, prop_delay=1000, bandwidth_bps=None)
        for _ in range(100):
            pipe.send(make_packet())
        assert pipe.in_flight == 100
        assert sim.pending_events == 1  # the pump, not 100 deliveries
        sim.run()
        assert len(arrivals) == 100
        assert pipe.in_flight == 0

    def test_one_engine_event_per_delivered_packet(self, sim):
        """The pump re-arms per packet, so events_processed still counts
        one event per delivery (throughput metrics stay comparable)."""
        pipe, arrivals = connected_pipe(sim, prop_delay=1000, bandwidth_bps=None)
        for _ in range(10):
            pipe.send(make_packet())
        sim.run()
        assert sim.events_processed == 10

    def test_delivery_interleaves_with_other_events_in_send_order(self, sim):
        """Ties at the same instant keep the order the per-packet scheme
        would have produced: the pump re-arms with reserved seqs."""
        order = []
        pipe = Pipe(sim, "a->b", prop_delay=1000, bandwidth_bps=None)
        pipe.connect(lambda pkt: order.append("pkt"))
        pipe.send(make_packet())           # delivery seq reserved first
        sim.schedule_at(1000, lambda: order.append("timer1"))
        pipe.send(make_packet())           # second delivery, same instant
        sim.schedule_at(1000, lambda: order.append("timer2"))
        sim.run()
        assert order == ["pkt", "timer1", "pkt", "timer2"]

    def test_send_from_delivery_callback_keeps_pumping(self, sim):
        """A delivery that triggers another send on the same pipe re-arms
        the pump correctly even when the queue just drained."""
        pipe, arrivals = connected_pipe(sim, prop_delay=1000, bandwidth_bps=None)
        sent = []

        def deliver_and_resend(pkt):
            arrivals.append((sim.now, pkt))
            if len(sent) < 3:
                sent.append(pkt)
                pipe.send(make_packet())

        pipe.connect(deliver_and_resend)
        pipe.send(make_packet())
        sim.run()
        assert [t for t, _ in arrivals] == [1000, 2000, 3000, 4000]

    def test_pump_stats_count_deliveries(self, sim):
        pipe, _ = connected_pipe(sim, prop_delay=0, bandwidth_bps=None)
        for _ in range(5):
            pipe.send(make_packet(payload=10))
        sim.run()
        assert pipe.stats.packets_delivered == 5
        assert pipe.stats.bytes_delivered == 5 * (HEADER_BYTES + 10)


def slab_handle(slab, payload=0):
    src = slab.intern_endpoint(Endpoint("a", 1))
    dst = slab.intern_endpoint(Endpoint("b", 2))
    return slab.alloc(src, dst, slab.intern_flow(src, dst), 0, 0, 0, payload, None, 0)


class TestFirstUse:
    """A pipe's queues appear on its first send; nothing else changes.

    Each test sends on a pipe that has never carried a packet, with one
    knob in force, and checks the outcome the wire model prescribes.
    (``TestQueueing`` already tail-drops on a fresh object-mode pipe.)
    """

    def test_never_used_pipe_has_nothing_in_flight(self, sim):
        pipe, arrivals = connected_pipe(sim, prop_delay=100, bandwidth_bps=10**9)
        pipe.set_partitioned(True)
        pipe.set_partitioned(False)
        assert pipe.in_flight == 0
        sim.run()
        assert arrivals == []
        assert pipe.stats.packets_sent == 0

    def test_first_send_into_partition_is_dropped(self, sim):
        pipe, arrivals = connected_pipe(sim, prop_delay=100, bandwidth_bps=10**9)
        pipe.set_partitioned(True)
        assert not pipe.send(make_packet())
        assert pipe.in_flight == 0
        assert pipe.stats.packets_dropped_partition == 1
        pipe.set_partitioned(False)
        assert pipe.send(make_packet())
        sim.run()
        assert len(arrivals) == 1

    def test_first_send_lost(self, sim):
        pipe, arrivals = connected_pipe(sim, prop_delay=100, bandwidth_bps=None)
        pipe.set_drop_prob(1.0, rng=random.Random(1))
        assert not pipe.send(make_packet())
        assert pipe.in_flight == 0
        assert pipe.stats.packets_dropped_loss == 1
        pipe.set_drop_prob(0.0)
        assert pipe.send(make_packet())
        sim.run()
        assert [t for t, _ in arrivals] == [100]

    def test_first_send_jittered(self, sim):
        pipe, arrivals = connected_pipe(sim, prop_delay=100, bandwidth_bps=None)
        pipe.set_extra_jitter(lambda: 70)
        assert pipe.send(make_packet())
        assert pipe.in_flight == 1
        sim.run()
        assert [t for t, _ in arrivals] == [170]

    def test_first_send_under_bandwidth_override(self, sim):
        slow = 10**6
        pipe, arrivals = connected_pipe(
            sim, prop_delay=100, bandwidth_bps=None, queue_capacity=1
        )
        pipe.set_bandwidth_override(slow)
        pkt = make_packet(payload=100)
        assert pipe.send(pkt)
        assert not pipe.send(make_packet(payload=100))  # wire busy, queue full
        sim.run()
        assert arrivals == [(serialization_delay(pkt.size_bytes, slow) + 100, pkt)]

    @pytest.mark.parametrize("knob", ["partition", "loss", "tail_drop"])
    def test_first_send_drop_frees_slab_handle(self, sim, knob):
        slab = PacketSlab()
        pipe = Pipe(
            sim, "a->b", prop_delay=100, bandwidth_bps=10**9,
            queue_capacity=1, slab=slab,
        )
        pipe.connect(slab.free)
        if knob == "partition":
            pipe.set_partitioned(True)
        elif knob == "loss":
            pipe.set_drop_prob(1.0, rng=random.Random(1))
        else:
            assert pipe.send(slab_handle(slab))
        assert not pipe.send(slab_handle(slab))
        assert slab.live == pipe.in_flight == sim.parked_packets
        sim.run()
        assert slab.live == 0

    def test_first_send_batch_on_ideal_link(self, sim):
        slab = PacketSlab()
        pipe = Pipe(sim, "a->b", prop_delay=100, slab=slab)
        delivered = []
        pipe.connect(lambda h: delivered.append((sim.now, h)))
        handles = [slab_handle(slab, payload=10) for _ in range(3)]
        assert pipe.send_batch(handles) == 3
        assert pipe.in_flight == 3
        assert pipe.stats.bytes_sent == 3 * (HEADER_BYTES + 10)
        sim.run()
        assert delivered == [(100, h) for h in handles]

    def test_first_send_batch_on_wire_tail_drops(self, sim):
        slab = PacketSlab()
        pipe = Pipe(
            sim, "a->b", prop_delay=100, bandwidth_bps=10**9,
            queue_capacity=2, slab=slab,
        )
        pipe.connect(slab.free)
        assert pipe.send_batch([slab_handle(slab) for _ in range(3)]) == 2
        assert pipe.stats.packets_dropped_queue == 1
        assert slab.live == pipe.in_flight == 2
        sim.run()
        assert slab.live == 0


def test_slab_holds_only_parked_packets_after_fig3_run():
    """Resource hygiene: at cutoff every live slab handle is a packet
    still parked in some pipe's arrival queue."""
    duration = 300 * MILLISECONDS
    config = ScenarioConfig(
        seed=1,
        duration=duration,
        n_clients=1,
        n_servers=2,
        policy=PolicyName.FEEDBACK,
        faults=parse_faults("fig3", duration),
        warmup=duration // 10,
    )
    scenario = run_scenario(config).scenario
    pipes = scenario.network.pipes().values()
    assert scenario.network.slab.live == scenario.sim.parked_packets
    assert scenario.sim.parked_packets == sum(p.in_flight for p in pipes)
