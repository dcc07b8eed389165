"""Two-tier servers and the dependency scenario (open question #3)."""

import pytest

from repro.app.client import MemtierConfig
from repro.errors import ConfigError
from repro.harness.tiered import TieredScenarioConfig, TieredResult, run_tiered
from repro.telemetry.quantiles import exact_quantile
from repro.units import MICROSECONDS, MILLISECONDS, SECONDS
from tests.conftest import assert_slab_hygiene


def light_memtier():
    return MemtierConfig(connections=2, pipeline=2, requests_per_connection=100)


def run(fault, duration=600 * MILLISECONDS):
    config = TieredScenarioConfig(
        duration=duration, fault=fault, memtier=light_memtier()
    )
    return run_scenario_cached(config)


_cache = {}


def run_scenario_cached(config) -> TieredResult:
    key = (config.fault, config.duration)
    if key not in _cache:
        _cache[key] = run_tiered(config)
    return _cache[key]


class TestPlumbing:
    def test_requests_complete_through_both_tiers(self):
        result = run("none")
        assert len(result.client.records) > 100
        assert result.dependency.stats.requests > 100
        for frontend in result.frontends:
            assert frontend.stats.dependency_calls == frontend.stats.requests

    def test_slab_holds_only_parked_packets_at_cutoff(self):
        assert_slab_hygiene(run("none").feedback.lb.network)

    def test_latency_includes_dependency_round_trip(self):
        result = run("none")
        latencies = result.latencies()
        median = exact_quantile(latencies, 0.5)
        # client<->lb<->frontend RTT ~100us + frontend<->dep RTT ~40us
        # + service times: strictly more than the single-tier path.
        assert median > 150 * MICROSECONDS

    def test_dependency_latency_recorded(self):
        result = run("none")
        for frontend in result.frontends:
            assert frontend.stats.dependency_latencies
            assert min(frontend.stats.dependency_latencies) > 40 * MICROSECONDS

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TieredScenarioConfig(fault="cosmic-rays").validate()
        with pytest.raises(ConfigError):
            TieredScenarioConfig(n_frontends=0).validate()
        with pytest.raises(ConfigError):
            TieredScenarioConfig(duration=0).validate()


class TestFrontendFault:
    """A genuinely slow frontend: shifting helps."""

    def test_estimates_separate(self):
        result = run("frontend")
        gap = result.estimate_gap()
        assert gap is not None
        assert gap > 500 * MICROSECONDS

    def test_traffic_drains_from_slow_frontend(self):
        result = run("frontend")
        weights = result.pool.weights()
        assert weights["frontend0"] < weights["frontend1"] / 3


class TestDependencyFault:
    """A slow shared dependency: both frontends inflate together."""

    def test_estimates_inflate_together(self):
        result = run("dependency")
        gap = result.estimate_gap()
        fault = result.config.fault_extra
        # The worst-best gap stays well under the fault size: the fault
        # is common-mode, not attributable to one backend.
        assert gap is not None
        assert gap < fault / 2

    def test_tail_inflates_despite_any_shifting(self):
        result = run("dependency")
        config = result.config
        pre = [
            r.latency
            for r in result.client.records
            if r.completed_at < config.fault_at
        ]
        post = [
            r.latency
            for r in result.client.records
            if r.completed_at > config.fault_at + config.duration // 8
        ]
        assert exact_quantile(post, 0.95) > exact_quantile(pre, 0.95) + result.config.fault_extra // 2

    def test_every_frontend_sees_dependency_slowdown(self):
        result = run("dependency")
        config = result.config
        for frontend in result.frontends:
            late = frontend.stats.dependency_latencies[-20:]
            assert exact_quantile([float(v) for v in late], 0.5) > config.fault_extra
