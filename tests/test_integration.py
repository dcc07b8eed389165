"""Cross-module integration invariants.

These test the *system*, not one module: the DSR visibility constraint,
connection affinity under weight churn, recovery after transient faults,
and conservation laws between client, LB, and server counters.
"""

import pytest

from repro.app.protocol import Op
from repro.faults import DelayFault
from repro.harness.config import (
    PolicyName,
    ScenarioConfig,
)
from repro.harness.runner import run_scenario
from repro.harness.scenario import build_scenario
from repro.net.packet import TcpFlags
from repro.units import MICROSECONDS, MILLISECONDS, SECONDS


def small_config(**kwargs):
    defaults = dict(seed=2, duration=300 * MILLISECONDS, n_servers=2)
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestDsrInvariant:
    def test_lb_never_sees_server_to_client_traffic(self):
        """The defining constraint of §2.4: responses bypass the LB."""
        scenario = build_scenario(small_config())
        seen_sources = set()
        # The tap's packet argument is a slab handle; the flow key
        # carries the source host.
        scenario.lb.add_tap(
            lambda now, flow, backend, pkt: seen_sources.add(flow.src_host)
        )
        for client in scenario.clients:
            client.start()
        scenario.sim.run_until(100 * MILLISECONDS)
        assert seen_sources  # traffic flowed
        assert all(host.startswith("client") for host in seen_sources)

    def test_responses_travel_direct_pipes(self):
        scenario = build_scenario(small_config())
        for client in scenario.clients:
            client.start()
        scenario.sim.run_until(100 * MILLISECONDS)
        direct = scenario.network.pipe("server0", "client0")
        assert direct.stats.packets_delivered > 0

    def test_responses_sourced_from_vip(self):
        """Clients must see responses from the VIP, or TCP would break."""
        scenario = build_scenario(small_config())
        bad = []
        scenario.network.add_tap(
            lambda pipe, pkt: bad.append(pkt)
            if pipe.startswith("server") and pkt.src.host != "vip"
            else None
        )
        for client in scenario.clients:
            client.start()
        scenario.sim.run_until(50 * MILLISECONDS)
        assert bad == []


class TestAffinity:
    def test_no_connection_breaks_during_weight_churn(self):
        """§2.5: rebuilds must not re-route established connections."""
        config = small_config(policy=PolicyName.FEEDBACK, duration=500 * MILLISECONDS)
        config.faults = [
            DelayFault(
                start=100 * MILLISECONDS, extra=1 * MILLISECONDS, node="server0"
            )
        ]
        scenario = build_scenario(config)
        flow_backends = {}
        violations = []

        def check(now, flow, backend, pkt):
            if flow in flow_backends and flow_backends[flow] != backend:
                violations.append((flow, flow_backends[flow], backend))
            flow_backends[flow] = backend

        scenario.lb.add_tap(check)
        for client in scenario.clients:
            client.start()
        scenario.sim.run_until(config.duration)
        assert scenario.feedback.shift_events()  # weights did change
        assert violations == []

    def test_every_request_answered_exactly_once(self):
        result = run_scenario(small_config())
        ids = [r.request_id for r in result.records]
        assert len(ids) == len(set(ids))


class TestConservation:
    def test_served_counts_match_client_view(self):
        result = run_scenario(small_config())
        servers = result.scenario.servers
        total_responses = sum(s.stats.responses for s in servers)
        # Client may have in-flight stragglers at cutoff; responses sent
        # must be >= responses received, and close.
        assert total_responses >= len(result.records)
        assert total_responses - len(result.records) < 50

    def test_store_state_consistent_with_ops(self):
        result = run_scenario(small_config(n_servers=1))
        server = result.scenario.servers[0]
        sets = sum(1 for r in result.records if r.op is Op.SET)
        assert server.store.stats.sets >= sets

    def test_lb_forwarded_everything_it_accepted(self):
        result = run_scenario(small_config())
        stats = result.scenario.lb.stats
        assert stats.packets_forwarded == stats.packets_in


class TestTransientFault:
    def test_feedback_returns_traffic_after_fault_clears(self):
        """Inject, then clear: the weight floor keeps probe traffic on
        the slow server so the estimator can observe recovery."""
        duration = 1200 * MILLISECONDS
        config = small_config(
            policy=PolicyName.FEEDBACK,
            duration=duration,
            faults=[
                DelayFault(
                    start=duration // 4,
                    duration=duration // 4,
                    extra=2 * MILLISECONDS,
                    node="server0",
                )
            ],
        )
        result = run_scenario(config)
        # Late in the run (fault long gone) server0 serves again.
        late = [
            r
            for r in result.records
            if r.completed_at > duration * 3 // 4
        ]
        share = sum(1 for r in late if r.server == "server0") / len(late)
        assert share > 0.2

    def test_oracle_also_recovers(self):
        duration = 1200 * MILLISECONDS
        config = small_config(
            policy=PolicyName.ORACLE,
            duration=duration,
            faults=[
                DelayFault(
                    start=duration // 4,
                    duration=duration // 4,
                    extra=2 * MILLISECONDS,
                    node="server0",
                )
            ],
        )
        result = run_scenario(config)
        late = [r for r in result.records if r.completed_at > duration * 3 // 4]
        share = sum(1 for r in late if r.server == "server0") / len(late)
        assert share > 0.2


class TestScale:
    @pytest.mark.slow
    def test_many_clients_many_servers(self):
        config = ScenarioConfig(
            seed=8,
            duration=200 * MILLISECONDS,
            n_clients=4,
            n_servers=5,
            policy=PolicyName.FEEDBACK,
        )
        result = run_scenario(config)
        assert result.throughput_rps() > 1000
        counts = result.per_server_counts()
        assert len(counts) == 5  # every server served something
