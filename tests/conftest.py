"""Shared fixtures: simulators, mini-topologies, tiny scenarios."""

from __future__ import annotations

import pytest

from repro.net.addr import Endpoint
from repro.net.network import Network
from repro.net.packet import Packet, PacketSlab
from repro.sim.engine import Simulator
from repro.transport.connection import TransportConfig
from repro.transport.endpoint import Host
from repro.units import GIGABITS_PER_SECOND, MICROSECONDS


def load_packet(slab: PacketSlab, packet: Packet) -> int:
    """Load a hand-built ``packet`` into ``slab``; returns its handle.

    The inverse of :meth:`PacketSlab.materialize`: interns the endpoints
    and the flow, then allocates a record carrying every field (the
    packet id is freshly drawn, like any allocation).  Tests use it to
    inject exact segments into the handle-based dataplane.
    """
    src_i = slab.intern_endpoint(packet.src)
    dst_i = slab.intern_endpoint(packet.dst)
    return slab.alloc(
        src_i,
        dst_i,
        slab.intern_flow(src_i, dst_i),
        packet.flags,
        packet.seq,
        packet.ack,
        packet.payload_len,
        list(packet.boundaries) if packet.boundaries else None,
        packet.sent_at,
        packet.retransmit,
    )


def assert_slab_hygiene(network: Network) -> None:
    """At a run's cut-off every live slab handle is a packet still parked
    in some pipe's arrival queue: nothing leaked, nothing freed twice."""
    pipes = network.pipes().values()
    assert network.slab.capacity > 0  # the run carried packets
    assert network.slab.live == network.sim.parked_packets
    assert network.sim.parked_packets == sum(p.in_flight for p in pipes)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def network(sim: Simulator) -> Network:
    return Network(sim)


class PairTopology:
    """client ⇄ server over symmetric 100 µs pipes at 10 Gb/s."""

    def __init__(self, sim: Simulator, one_way: int = 100 * MICROSECONDS):
        self.sim = sim
        self.network = Network(sim)
        self.client = Host(self.network, "client")
        self.server = Host(self.network, "server")
        self.network.connect_bidirectional(
            "client",
            "server",
            prop_delay=one_way,
            bandwidth_bps=10 * GIGABITS_PER_SECOND,
        )
        self.one_way = one_way

    def server_endpoint(self, port: int = 7000) -> Endpoint:
        return Endpoint("server", port)


@pytest.fixture
def pair(sim: Simulator) -> PairTopology:
    return PairTopology(sim)


def make_echo_server(pair: PairTopology, port: int = 7000, reply_size: int = 256):
    """Listen on the pair's server; echo every message back."""
    received = []

    def on_connection(conn):
        def on_message(c, message):
            received.append((pair.sim.now, message))
            c.send_message(("echo", message), reply_size)

        conn.on_message = on_message
        conn.on_peer_close = lambda c: c.close()

    pair.server.listen(port, on_connection)
    return received


@pytest.fixture
def transport_config() -> TransportConfig:
    return TransportConfig()
