"""Unidirectional network path between two nodes.

A :class:`Pipe` models, in order:

1. **Random loss** — an optional ``drop_prob`` (the chaos plane's lossy
   path knob) discards the packet before it reaches the wire.
2. **Serialization** — the sender's NIC puts the packet on the wire at
   ``bandwidth_bps``; packets queue FIFO while the wire is busy.  A
   runtime bandwidth override (the throttle knob) can cap the wire
   speed below its configured value.
3. **Bounded queue** — if more than ``queue_capacity`` packets are
   waiting for the wire, the new packet is dropped (tail drop).
4. **Propagation** — a fixed ``prop_delay`` plus an adjustable
   ``extra_delay`` (the Fig 3 injection knob) plus optional random
   jitter (configured and/or injected at runtime).

Delivery order is preserved: the arrival time is clamped to be no
earlier than the previous packet's arrival, so jitter never reorders a
path.  (The paper's techniques do not depend on reordering, and in-order
delivery keeps the TCP model honest about what triggers transmissions.)

Tail drops and random losses are counted separately in
:class:`PipeStats` (``packets_dropped_queue`` vs ``packets_dropped_loss``)
so experiments can distinguish congestion from injected loss.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from itertools import repeat as _repeat
from typing import Callable, Deque, Optional

from repro.errors import NetworkError
from repro.net.packet import HEADER_BYTES, Packet, PacketSlab
from repro.sim.engine import EventHandle, Simulator
from repro.units import serialization_delay


@dataclass
class PipeStats:
    """Counters a pipe accumulates over its lifetime."""

    packets_sent: int = 0
    packets_delivered: int = 0
    packets_dropped_queue: int = 0
    packets_dropped_loss: int = 0
    packets_dropped_partition: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0

    @property
    def packets_dropped(self) -> int:
        """Total drops from any cause (tail drop, loss, partition)."""
        return (
            self.packets_dropped_queue
            + self.packets_dropped_loss
            + self.packets_dropped_partition
        )


class Pipe:
    """One-way link with delay, bandwidth, queueing, and injection knobs.

    Parameters
    ----------
    sim:
        The simulation engine used to schedule deliveries.
    name:
        Label used in traces and error messages.
    prop_delay:
        One-way propagation delay in ns.
    bandwidth_bps:
        Wire speed in bits/s; ``None`` disables serialization delay and
        queueing entirely (an ideal link).
    queue_capacity:
        Maximum packets waiting for the wire before tail drop (only
        meaningful with finite bandwidth).
    jitter:
        Optional callable returning a non-negative ns jitter to add to
        each packet's propagation (e.g. ``lambda: rng.randrange(5_000)``).

    A topology builds a pipe per direction for every host pair, and most
    of them never carry a packet, so a pipe is slotted and creates its
    departure and arrival queues on first use.
    """

    __slots__ = (
        "_sim",
        "name",
        "_prop_delay",
        "_bandwidth_bps",
        "_bandwidth_override",
        "_queue_capacity",
        "_jitter",
        "_extra_jitter",
        "_extra_delay",
        "_drop_prob",
        "_partitioned",
        "_loss_rng",
        "_wire_free_at",
        "_last_arrival",
        "_eff_bw",
        "_total_delay",
        "_cold",
        "_departures",
        "_arrivals",
        "_pump_armed",
        "stats",
        "_deliver",
        "_deliver_batch",
        "_slab",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        prop_delay: int,
        bandwidth_bps: Optional[int] = None,
        queue_capacity: int = 1024,
        jitter: Optional[Callable[[], int]] = None,
        slab: Optional[PacketSlab] = None,
    ):
        if prop_delay < 0:
            raise NetworkError("negative propagation delay on pipe %s" % name)
        if queue_capacity < 1:
            raise NetworkError("queue capacity must be >= 1 on pipe %s" % name)
        self._sim = sim
        self.name = name
        self._prop_delay = prop_delay
        self._bandwidth_bps = bandwidth_bps
        self._bandwidth_override: Optional[int] = None
        self._queue_capacity = queue_capacity
        self._jitter = jitter
        self._extra_jitter: Optional[Callable[[], int]] = None
        self._extra_delay = 0
        self._drop_prob = 0.0
        self._partitioned = False
        self._loss_rng: Optional[random.Random] = None
        self._wire_free_at = 0
        self._last_arrival = 0
        # Hot-path caches, kept in sync by the knob setters: the send
        # fast path reads one flag instead of re-deriving partition /
        # loss / jitter / override state per packet.
        self._eff_bw = bandwidth_bps
        self._total_delay = prop_delay
        self._cold = jitter is not None
        # Departure times of packets still occupying the queue/wire;
        # drained lazily in send() instead of with per-packet events.
        # Created by the first send on a finite-bandwidth wire.
        self._departures: Optional[Deque[int]] = None
        # The delivery pump: packets in flight wait in this deque as
        # (arrival, reserved seq, packet) and exactly one engine event —
        # armed for the head entry — is outstanding per pipe.  Arrivals
        # are monotone (the no-reorder clamp), so the head is always the
        # next delivery; each packet's tie-breaking seq is reserved at
        # send time, which keeps event order byte-identical to the old
        # one-event-per-packet scheme while the heap stays O(pipes).
        # Created by the first accepted send.
        self._arrivals: Optional[Deque[tuple]] = None
        self._pump_armed = False
        self.stats = PipeStats()
        self._deliver: Optional[Callable[[Packet], None]] = None
        self._deliver_batch: Optional[Callable[[list], None]] = None
        # Slab mode: payloads are integer handles into these columns.
        # The pipe owns a handle from send() until delivery or drop.
        self._slab = slab

    @property
    def prop_delay(self) -> int:
        """Configured propagation delay (ns), excluding extra delay."""
        return self._prop_delay

    @property
    def extra_delay(self) -> int:
        """Currently injected extra one-way delay (ns)."""
        return self._extra_delay

    def set_extra_delay(self, extra: int) -> None:
        """Inject (or clear, with 0) additional one-way delay.

        This is the experiment's fault-injection knob: Fig 3 sets 1 ms of
        extra delay on one LB→server pipe mid-run.
        """
        if extra < 0:
            raise NetworkError("extra delay must be >= 0, got %d" % extra)
        self._extra_delay = extra
        self._total_delay = self._prop_delay + extra

    @property
    def drop_prob(self) -> float:
        """Current random-loss probability (0 disables loss)."""
        return self._drop_prob

    def set_drop_prob(
        self, prob: float, rng: Optional[random.Random] = None
    ) -> None:
        """Inject (or clear, with 0) random packet loss.

        ``rng`` supplies the loss draws and must come from a dedicated
        seeded stream so loss does not perturb other randomness.
        """
        if not 0.0 <= prob <= 1.0:
            raise NetworkError(
                "drop probability must be in [0, 1], got %r" % prob
            )
        if prob > 0.0 and rng is None and self._loss_rng is None:
            raise NetworkError("loss on pipe %s needs an RNG" % self.name)
        if rng is not None:
            self._loss_rng = rng
        self._drop_prob = prob
        self._refresh_cold()

    @property
    def partitioned(self) -> bool:
        """Whether a network partition is currently cutting this pipe."""
        return self._partitioned

    def set_partitioned(self, active: bool) -> None:
        """Cut (or restore) the pipe entirely.

        While partitioned every packet is discarded before the wire and
        counted under ``packets_dropped_partition`` — a hard cut, unlike
        probabilistic loss, so both fate and statistics stay
        deterministic without an RNG.
        """
        self._partitioned = bool(active)
        self._refresh_cold()

    @property
    def bandwidth_bps(self) -> Optional[int]:
        """Configured wire speed (bits/s), ignoring any override."""
        return self._bandwidth_bps

    @property
    def effective_bandwidth_bps(self) -> Optional[int]:
        """Wire speed in force right now (override never exceeds base)."""
        if self._bandwidth_override is None:
            return self._bandwidth_bps
        if self._bandwidth_bps is None:
            return self._bandwidth_override
        return min(self._bandwidth_bps, self._bandwidth_override)

    def set_bandwidth_override(self, bandwidth_bps: Optional[int]) -> None:
        """Throttle the wire to ``bandwidth_bps`` (None restores base).

        A throttle only ever slows the link: the effective bandwidth is
        the minimum of the configured speed and the override.
        """
        if bandwidth_bps is not None and bandwidth_bps <= 0:
            raise NetworkError(
                "bandwidth override must be positive or None on %s" % self.name
            )
        self._bandwidth_override = bandwidth_bps
        self._eff_bw = self.effective_bandwidth_bps

    @property
    def extra_jitter(self) -> Optional[Callable[[], int]]:
        """Currently injected jitter draw (None when inactive)."""
        return self._extra_jitter

    def set_extra_jitter(self, jitter: Optional[Callable[[], int]] = None) -> None:
        """Inject (or clear, with None) additional per-packet jitter.

        Composes with any construction-time jitter; both draws are added
        to the packet's propagation delay.
        """
        self._extra_jitter = jitter
        self._refresh_cold()

    def _refresh_cold(self) -> None:
        """Recompute whether send() must take the slow (faulted) path."""
        self._cold = (
            self._partitioned
            or self._drop_prob > 0.0
            or self._jitter is not None
            or self._extra_jitter is not None
        )

    def connect(self, deliver: Callable[[Packet], None]) -> None:
        """Attach the receiving side's delivery callback."""
        self._deliver = deliver

    def connect_batch(self, deliver_batch: Callable[[list], None]) -> None:
        """Attach an optional *batch* delivery callback (slab mode only).

        When set, the pump hands an entire same-instant batch of due slab
        handles to ``deliver_batch(handles)`` in one call whenever that
        is order-equivalent to per-packet dispatch: every queued arrival
        shares the head's arrival instant and no other engine event's
        key interleaves the batch's reserved seqs.  Receivers that
        register this commit to handle-only traffic on the pipe and take
        ownership of every handle in the list.  Per-packet
        :meth:`connect` delivery remains the fallback (lone arrivals,
        bounded runs, profiled runs, mixed-instant batches).
        """
        self._deliver_batch = deliver_batch

    def send(self, packet) -> bool:
        """Transmit ``packet`` (object or slab handle).

        Returns False if it was dropped.  In slab mode the pipe takes
        ownership of the handle: dropped handles are freed here,
        delivered ones pass to the receiver.
        """
        if self._deliver is None:
            raise NetworkError("pipe %s has no receiver connected" % self.name)
        slab = self._slab
        if slab is not None and type(packet) is int:
            size = HEADER_BYTES + slab.payload_len[packet]
        else:
            slab = None
            size = packet.size_bytes
        stats = self.stats
        stats.packets_sent += 1
        stats.bytes_sent += size
        cold = self._cold

        if cold:
            if self._partitioned:
                stats.packets_dropped_partition += 1
                if slab is not None:
                    slab.free(packet)
                return False
            if self._drop_prob > 0.0:
                assert self._loss_rng is not None
                if self._loss_rng.random() < self._drop_prob:
                    stats.packets_dropped_loss += 1
                    if slab is not None:
                        slab.free(packet)
                    return False

        sim = self._sim
        now = sim._now
        bandwidth = self._eff_bw
        if bandwidth is None:
            departure = now
        else:
            departures = self._departures
            if departures is None:
                departures = self._departures = deque()
            while departures and departures[0] <= now:
                departures.popleft()
            if len(departures) >= self._queue_capacity:
                stats.packets_dropped_queue += 1
                if slab is not None:
                    slab.free(packet)
                return False
            start = self._wire_free_at
            if start < now:
                start = now
            # Inlined serialization_delay(): ceil(bits·ns-per-s / bps).
            departure = start + (-(-size * 8_000_000_000 // bandwidth))
            self._wire_free_at = departure
            departures.append(departure)

        arrival = departure + self._total_delay
        if cold:
            for draw in (self._jitter, self._extra_jitter):
                if draw is not None:
                    jitter = draw()
                    if jitter < 0:
                        raise NetworkError(
                            "jitter must be non-negative on %s" % self.name
                        )
                    arrival += jitter
        # Never reorder: clamp to the previous arrival instant.
        if arrival < self._last_arrival:
            arrival = self._last_arrival
        self._last_arrival = arrival

        # Reserve the tie-breaking seq now (as if the delivery event were
        # scheduled here) but only keep one engine event outstanding.
        # (reserve_seq() and note_parked(1) inlined — this is the hottest
        # per-packet call site in the simulation.)
        seq = sim._seq + 1
        sim._seq = seq
        arrivals = self._arrivals
        if arrivals is None:
            arrivals = self._arrivals = deque()
        arrivals.append((arrival, seq, packet))
        parked = sim._parked + 1
        sim._parked = parked
        load = len(sim._queue) - sim._tombstones + sim._run_pending + parked
        if load > sim._peak_load:
            sim._peak_load = load
        if not self._pump_armed:
            self._pump_armed = True
            sim.schedule_fire_at(arrival, self._pump, seq=seq)
        return True

    def send_batch(self, handles: list) -> int:
        """Transmit a wave of slab handles; returns how many were accepted.

        Fast path for the warm ideal-link case (slab mode, no faults, no
        bandwidth): the wave shares one arrival instant, so stats, seq
        reservation, and pump arming are each done once and the per-packet
        work collapses to a C-level extend of the arrival queue.  Any
        other configuration (faults armed, finite bandwidth, object mode)
        falls back to per-packet :meth:`send`, which preserves exact
        drop/serialization behavior.
        """
        slab = self._slab
        if slab is None or self._cold or self._eff_bw is not None:
            send = self.send
            sent = 0
            for handle in handles:
                if send(handle):
                    sent += 1
            return sent
        if self._deliver is None:
            raise NetworkError("pipe %s has no receiver connected" % self.name)
        n = len(handles)
        if n == 0:
            return 0
        stats = self.stats
        payload_len = slab.payload_len
        size = HEADER_BYTES * n + sum(map(payload_len.__getitem__, handles))
        stats.packets_sent += n
        stats.bytes_sent += size
        sim = self._sim
        arrival = sim._now + self._total_delay
        if arrival < self._last_arrival:
            arrival = self._last_arrival
        self._last_arrival = arrival
        seq = sim.reserve_seq_block(n)
        arrivals = self._arrivals
        if arrivals is None:
            arrivals = self._arrivals = deque()
        arrivals.extend(
            zip(_repeat(arrival, n), range(seq, seq + n), handles)
        )
        sim.note_parked(n)
        if not self._pump_armed:
            self._pump_armed = True
            sim.schedule_fire_at(arrival, self._pump, seq=seq)
        return n

    def _pump(self) -> None:
        """Deliver every in-flight packet whose arrival is due; re-arm.

        Batch drain: one engine event delivers the head packet and then —
        when the engine is in an unbounded run (``sim.inline_ok``) — keeps
        delivering successive arrivals inline for as long as each would
        have been the very next engine event anyway (its ``(time, seq)``
        key precedes the engine's next key and the run horizon).  Each
        inline delivery advances the clock and the processed-events count
        exactly as a separate pump firing would, so ``events_processed``,
        callback order, and every timestamp stay byte-identical to the
        one-event-per-packet scheme; only the heap traffic disappears.

        When the batch leaves arrivals behind (or the engine is stepping
        with a budget), the pump re-arms for the new head using its
        reserved seq, preserving tie order against unrelated events.
        """
        sim = self._sim
        arrivals = self._arrivals
        stats = self.stats
        deliver = self._deliver
        assert deliver is not None
        slab = self._slab

        _arrival, _seq, packet = arrivals.popleft()
        if not arrivals and sim._inline_ok:
            # Fast path: lone arrival during an unbounded drain (the
            # overwhelmingly common case on lightly loaded pipes).  With
            # nothing left to batch, the phantom/horizon machinery below
            # degenerates to exactly this:
            self._pump_armed = False
            sim._parked -= 1
            stats.packets_delivered += 1
            if slab is not None and type(packet) is int:
                stats.bytes_delivered += HEADER_BYTES + slab.payload_len[packet]
            else:
                stats.bytes_delivered += packet.size_bytes
            deliver(packet)
            return
        deliver_batch = self._deliver_batch
        if (
            deliver_batch is not None
            and sim._inline_ok
            and sim._profiler is None
            and slab is not None
            and arrivals
            and arrivals[-1][0] == _arrival
        ):
            # Bulk drain: every queued arrival shares this instant
            # (arrivals are monotone, so last == head means all equal).
            # If no other engine event's key interleaves the batch's
            # reserved seqs, per-packet dispatch would deliver exactly
            # this list in exactly this order with the clock pinned at
            # _arrival — so hand the whole batch to the receiver in one
            # call and account for it wholesale.
            last_seq = arrivals[-1][1]
            key = sim.next_key()
            if key is None or key > (_arrival, last_seq):
                batch = [packet]
                batch.extend(entry[2] for entry in arrivals)
                arrivals.clear()
                self._pump_armed = False
                n = len(batch)
                sim._parked -= n
                stats.packets_delivered += n
                payload_len = slab.payload_len
                stats.bytes_delivered += HEADER_BYTES * n + sum(
                    map(payload_len.__getitem__, batch)
                )
                # The pump's own heap event covers the head; the rest
                # were delivered inline.
                sim.inline_fire_batch(_arrival, n - 1)
                deliver_batch(batch)
                return
        if not sim.inline_ok:
            # Bounded run (step()/max_events): exact per-packet behavior.
            if arrivals:
                head = arrivals[0]
                sim.schedule_fire_at(head[0], self._pump, seq=head[1])
            else:
                self._pump_armed = False
            sim._parked -= 1
            stats.packets_delivered += 1
            if slab is not None and type(packet) is int:
                stats.bytes_delivered += HEADER_BYTES + slab.payload_len[packet]
            else:
                stats.bytes_delivered += packet.size_bytes
            deliver(packet)
            return

        # Mirror the per-firing bookkeeping of the one-event scheme
        # before every delivery: while arrivals remain queued the old
        # scheme had a re-armed pump event in the heap (modelled here as
        # a phantom, so peak depth follows the same trajectory); once
        # arrivals drain, the pump was disarmed, so a send() issued from
        # inside a delivery arms a real heap event exactly as before.
        profiler = sim._profiler
        until = sim.inline_until
        sim._parked -= 1
        # The first packet's delivery belongs to the pump's own heap
        # event (the engine already wraps and counts it); only inline
        # deliveries are dispatched through the profiler here, keeping
        # profiler.events == sim.events_processed.
        first = True
        while True:
            if arrivals:
                sim._phantom = 1
                armed_inline = True
            else:
                sim._phantom = 0
                self._pump_armed = False
                armed_inline = False
            stats.packets_delivered += 1
            if slab is not None and type(packet) is int:
                stats.bytes_delivered += HEADER_BYTES + slab.payload_len[packet]
            else:
                stats.bytes_delivered += packet.size_bytes
            if profiler is None or first:
                first = False
                deliver(packet)
            else:
                profiler.run_args(deliver, packet)
            if not armed_inline:
                # Arrivals were empty at delivery time; any packets sent
                # during the delivery armed a fresh heap event themselves.
                break
            head = arrivals[0]
            t2 = head[0]
            if until is not None and t2 > until:
                self._re_arm(head)
                break
            s2 = head[1]
            queue = sim._queue
            if sim._runs or (queue and type(queue[0][2]) is EventHandle):
                # Slow path: run columns or a possibly-cancelled heap
                # head need the engine's authoritative next key.
                key = sim.next_key()
                if key is not None and key < (t2, s2):
                    self._re_arm(head)
                    break
            elif queue:
                entry = queue[0]
                qt = entry[0]
                if qt < t2 or (qt == t2 and entry[1] < s2):
                    self._re_arm(head)
                    break
            arrivals.popleft()
            packet = head[2]
            sim._parked -= 1
            # inline_fire(t2), inlined:
            sim._now = t2
            sim._events_processed += 1
        sim._phantom = 0

    def _re_arm(self, head: tuple) -> None:
        # Delivery must yield to an earlier engine event: drop the
        # phantom (the real push replaces it) and schedule the pump for
        # the head arrival under its reserved seq.
        sim = self._sim
        sim._phantom = 0
        sim.schedule_fire_at(head[0], self._pump, seq=head[1])

    @property
    def in_flight(self) -> int:
        """Packets sent but not yet delivered (pump queue depth)."""
        arrivals = self._arrivals
        return 0 if arrivals is None else len(arrivals)
