"""Many independent feedback LBs over one server pool (open question #4)."""

import pytest

from repro.errors import ConfigError
from repro.harness.multilb import MultiLbConfig, run_multilb
from repro.units import MILLISECONDS, SECONDS
from tests.conftest import assert_slab_hygiene


_cache = {}


def run(duration=800 * MILLISECONDS, n_lbs=2):
    key = (duration, n_lbs)
    if key not in _cache:
        _cache[key] = run_multilb(MultiLbConfig(duration=duration, n_lbs=n_lbs))
    return _cache[key]


class TestTopology:
    def test_clients_only_reach_their_own_lb(self):
        result = run()
        # Each LB saw traffic, and per-LB new flows exist.
        for lb in result.lbs:
            assert lb.stats.packets_forwarded > 0

    def test_servers_shared_by_all_lbs(self):
        result = run()
        for server in result.servers:
            assert server.stats.requests > 0

    def test_slab_holds_only_parked_packets_at_cutoff(self):
        assert_slab_hygiene(run().lbs[0].network)

    def test_validation(self):
        with pytest.raises(ConfigError):
            MultiLbConfig(n_lbs=0).validate()
        with pytest.raises(ConfigError):
            MultiLbConfig(duration=0).validate()


class TestIndependentControl:
    def test_every_lb_ends_with_slow_server_drained(self):
        # An LB may have pre-positioned its weights through noise shifts
        # (the naive controller is noisy) — the end state is the robust
        # signal: each independent loop leaves the injected server at a
        # small share of its weight.
        result = run()
        injected = result.config.injected_server
        for lb in result.lbs:
            weights = lb.pool.weights()
            assert weights[injected] < sum(weights.values()) / 4

    def test_combined_traffic_drains_from_slow_server(self):
        result = run()
        config = result.config
        share = result.injected_share_after(
            config.injection_at + config.duration // 4
        )
        assert share < 0.25

    def test_weight_trajectories_recorded(self):
        result = run()
        for series in result.weight_series:
            assert len(series) > 0
            for _t, value in series.items():
                assert 0.0 <= value <= 1.0

    def test_oscillation_metric_bounded(self):
        # The herd exists but must not ring indefinitely in this setup.
        result = run()
        for index in range(result.config.n_lbs):
            assert result.oscillations(index) < 30

    def test_per_lb_state_isolated(self):
        result = run()
        pools = [lb.pool for lb in result.lbs]
        assert pools[0] is not pools[1]
        # Estimators are independent too.
        assert result.feedbacks[0].estimator is not result.feedbacks[1].estimator
