"""The elastic scenario: fleet scale events under live traffic."""

import pytest

from repro import units
from repro.harness.elastic import (
    ElasticConfig,
    elastic_point,
    race_table,
    run_elastic,
)
from tests.conftest import assert_slab_hygiene

MINI = dict(
    duration=units.seconds(0.4),
    initial_backends=4,
    max_backends=12,
    clients=2,
    connections=8,
    maglev_size=127,
)


@pytest.fixture(scope="module")
def mini_run():
    return run_elastic(ElasticConfig(**MINI))


class TestElasticScenario:
    def test_config_validates(self):
        ElasticConfig(**MINI).scenario_config().validate()

    def test_diurnal_windows_are_staggered(self):
        config = ElasticConfig(**MINI)
        start0, stop0 = config.client_window(0)
        start1, stop1 = config.client_window(1)
        assert (start0, stop0) == (0, config.duration)
        assert 0 < start1 < config.duration // 2
        assert 3 * config.duration // 4 <= stop1 < config.duration

    def test_fleet_reaches_scheduled_peak(self, mini_run):
        assert mini_run.peak_capacity() == MINI["max_backends"]

    def test_no_affinity_violations_across_scale_events(self, mini_run):
        assert mini_run.violations == 0
        assert mini_run.new_flows > 0
        # Scale events actually happened — the invariant wasn't vacuous.
        assert mini_run.fleet.decisions

    def test_lifecycle_saw_full_ramp(self, mini_run):
        counts = mini_run.fleet.lifecycle.transition_counts()
        assert counts["new->in_service"] == MINI["initial_backends"]
        assert counts["provisioning->warming"] > 0
        assert counts["warming->in_service"] > 0

    def test_report_carries_the_headline_metrics(self, mini_run):
        report = mini_run.report()
        assert "scaling timeline:" in report
        assert "oscillations:" in report
        assert "affinity violations: 0" in report
        assert "time to stable fleet after peak:" in report
        assert "lifecycle transitions:" in report

    def test_stability_clock_is_non_negative(self, mini_run):
        assert mini_run.time_to_stable_ms() >= 0.0

    def test_slab_holds_only_parked_packets_at_cutoff(self, mini_run):
        assert_slab_hygiene(mini_run.scenario.feedback.lb.network)


class TestRaceRows:
    def test_point_row_shape(self):
        row = elastic_point(ElasticConfig(**MINI))
        assert row["strategy"] == "alpha"
        assert row["peak_capacity"] == MINI["max_backends"]
        assert row["violations"] == 0
        assert row["requests"] > 0
        assert row["time_to_stable_ms"] >= 0.0
        assert isinstance(row["grades"], dict)

    def test_race_table_ranks_stable_controllers_first(self):
        rows = [
            {
                "strategy": "wobbly",
                "peak_capacity": 12,
                "oscillations": 3,
                "violations": 0,
                "time_to_stable_ms": 10.0,
                "stale_holds": 0,
                "grades": {},
                "requests": 100,
            },
            {
                "strategy": "steady",
                "peak_capacity": 12,
                "oscillations": 0,
                "violations": 0,
                "time_to_stable_ms": 50.0,
                "stale_holds": 1,
                "grades": {"fresh": 9},
                "requests": 100,
            },
        ]
        table = race_table(rows)
        assert table.index("steady") < table.index("wobbly")
        assert "fleet race [elastic]:" in table
