"""The benchmark's three scenario workloads: inputs, run, check, digest.

Each workload turns a seed into the program's own config objects and
runs them through the public entry point a CLI user would call
(``run_fig3``, ``run_elastic``, ``run_campaign``).  What a run produced
is read afterwards from the program's own state: the scenarios the
:class:`~ledger.Probe` captured, the clients' records and retry
counters, and the LB's statistics.

Why each workload exists (see README.md for the full map):

* ``fig3`` — the paper's experiment on the smallest topology, so the
  per-packet cost of sim/net/lb/transport dominates; resilience, fleet
  and sweep are absent (the bypass case for those layers).
* ``elastic_1k`` — 100 → 1024 backends under 4 × 128 connections with
  resilience on: thousands of pipes, connection churn, incremental
  Maglev patching, and the fleet and resilience planes.
* ``campaign`` — many short seeded chaos runs through the sweep
  executor: faults, retransmits and retries, the campaign audit and
  invariants, the insight recorder, and worker parallelism.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.app.protocol import Op
from repro.app.server import ServerConfig
from repro.app.servicetime import LogNormal
from repro.campaign import CampaignConfig, GeneratorConfig, run_campaign
from repro.campaign.registry import available as available_invariants
from repro.campaign.runner import build_point_config as _build_point_config
from repro.campaign.runner import campaign_point as _campaign_point
from repro.harness.elastic import ElasticConfig, run_elastic
from repro.harness.figures import Fig3Config, run_fig3
from repro.harness.report import format_table
from repro.units import MICROSECONDS, MILLISECONDS, SECONDS, to_millis

from ledger import active_probe

#: Long enough for the feedback arm to recover inside the post-fault
#: window the Fig 3 report reads (``duration // 8`` after injection).
FIG3_DURATION = 2 * SECONDS
#: The scheduled peak lands at 150 ms, so scale-out, warm-up and the
#: burst all happen; a 1 s run costs about 3× as much host time.
ELASTIC_DURATION = 300 * MILLISECONDS
CAMPAIGN_POINTS = 10
CAMPAIGN_DURATION = 1 * SECONDS
CAMPAIGN_JOBS = 2


def fig3_config(seed: int) -> Fig3Config:
    """``Fig3Config`` defaults, shortened to :data:`FIG3_DURATION`."""
    return Fig3Config(seed=seed, duration=FIG3_DURATION)


def elastic_config(seed: int) -> ElasticConfig:
    """``ElasticConfig`` defaults, shortened to :data:`ELASTIC_DURATION`."""
    return ElasticConfig(seed=seed, duration=ELASTIC_DURATION)


def campaign_config(seed: int) -> CampaignConfig:
    """As ``benchmarks/test_bench_campaign.py``: fewer runs, insight armed.

    Its servers come from :func:`variable_point_config` when it runs.
    """
    return CampaignConfig(
        seed=seed,
        runs=CAMPAIGN_POINTS,
        duration=CAMPAIGN_DURATION,
        n_servers=3,
        controllers=("alpha", "proportional", "gradient"),
        generator=GeneratorConfig(
            onset_min=0.15, onset_max=0.35, window_min=0.05, window_max=0.15
        ),
        recovery_bound=500 * MILLISECONDS,
        fleet_every=5,
        insight=True,
    )


def variable_point_config(point):
    """``build_point_config`` with the servers of ``examples/variable_servers.py``.

    Log-normal service times (median 50 µs, σ 0.4), the paper's §2.2
    server variability.  With the default constant 50 µs, the pipelined
    closed loop puts each request on a queue-position atom (0.2, 0.4,
    0.6 or 0.8 ms) and the pooled p50 sits at the 0.4/0.6 ms edge, so it
    lands on one or the other from seed to seed.
    """
    config = _build_point_config(point)
    config.server = ServerConfig(service_model=LogNormal(50 * MICROSECONDS, 0.4))
    return config


def mid_quantile(values: List[int], q: float) -> float:
    """Parzen's mid-quantile of ``values``: the ``q``-quantile of the
    mid-distribution ``F(x) − P(x)/2``, linear between distinct values.

    Simulated latencies sit on atoms (constant service times, fixed
    value sizes, a closed loop), so an order statistic stays on one atom
    while mass moves between atoms, and jumps when it crosses one.  The
    mid-quantile moves with the mass and equals the usual interpolated
    quantile on data without ties.  (E. Parzen, "Quantile probability
    and statistical data modeling", Statistical Science 19(4), 2004.)
    """
    counts = Counter(values)
    atoms = sorted(counts)
    mids: List[float] = []
    below = 0
    for atom in atoms:
        mids.append((below + counts[atom] / 2) / len(values))
        below += counts[atom]
    if q <= mids[0]:
        return float(atoms[0])
    if q >= mids[-1]:
        return float(atoms[-1])
    hi = bisect.bisect_right(mids, q)
    lo = hi - 1
    share = (q - mids[lo]) / (mids[hi] - mids[lo])
    return atoms[lo] + share * (atoms[hi] - atoms[lo])


# ----------------------------------------------------------------------
# Reading a finished scenario
# ----------------------------------------------------------------------


def scenario_stats(scenario) -> Dict[str, int]:
    """Simulated outputs of one scenario, from the program's own state.

    Attempted requests come from client state after the run: with a
    retry plane, its first-attempt counter; without one, completed plus
    still outstanding.  A request the retry plane gave up on (attempts
    exhausted or budget denied) is abandoned; one still in flight at
    the cutoff is neither completed nor abandoned.
    """
    requests = attempted = abandoned = 0
    for client in scenario.clients:
        completed = len(client.records)
        requests += completed
        if client.retry is not None:
            stats = client.retry_stats
            attempted += stats.first_attempts
            abandoned += stats.attempts_exhausted + stats.budget_denied
        else:
            attempted += completed + sum(
                len(loop.outstanding) for loop in client._conn_state.values()
            )
    feedback = scenario.feedback
    return {
        "requests": requests,
        "attempted": attempted,
        "abandoned": abandoned,
        "lb_packets": scenario.lb.stats.packets_in,
        "events": scenario.sim.events_processed,
        "sim_ns": scenario.config.duration,
        "shifts": len(feedback.shift_events()) if feedback is not None else 0,
    }


def post_warmup_latencies(scenario) -> List[int]:
    """All ops completed after the config's warmup (as the reports read)."""
    warmup = scenario.config.warmup
    return [
        r.latency
        for client in scenario.clients
        for r in client.records
        if r.completed_at >= warmup
    ]


def bench_point(point) -> Dict[str, object]:
    """``campaign_point`` plus what the benchmark reads from the run.

    Runs in the sweep worker, so the scenario's outputs travel back in
    the row.  The scenario comes from the probe installed before the
    workers were forked.
    """
    probe = active_probe()
    first_scenario, first_run = len(probe.scenarios), len(probe.runs)
    row = _campaign_point(point)
    (scenario,) = probe.scenarios[first_scenario:]
    row["bench"] = {
        "stats": scenario_stats(scenario),
        "latencies": post_warmup_latencies(scenario),
        "runs": probe.runs[first_run:],
    }
    return row


# ----------------------------------------------------------------------
# Running a workload
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    """What one run of a workload produced, ready for the parent process."""

    stats: Dict[str, int]
    latencies: List[int]
    #: ``(enter, exit)`` monotonic stamps of every ``run_until``.
    runs: List[List[float]]
    check_ok: bool
    check_msg: str
    report: str
    extras: Dict[str, object] = field(default_factory=dict)

    def summary(self) -> Dict[str, object]:
        """Simulated outputs plus their digest (the passivity witness).

        The digest covers every simulated output a metric is computed
        from, so a change that moves ``sim_rps``, a percentile or
        ``served_share`` changes it.
        """
        percentiles = {
            name: mid_quantile(self.latencies, q)
            for name, q in (("p50_ns", 0.50), ("p95_ns", 0.95), ("p99_ns", 0.99))
        }
        digest_fields = [
            self.stats["events"],
            self.stats["requests"],
            self.stats["attempted"],
            self.stats["abandoned"],
            self.stats["lb_packets"],
            percentiles["p50_ns"],
            percentiles["p95_ns"],
            percentiles["p99_ns"],
            self.stats["shifts"],
            self.check_ok,
        ]
        digest = hashlib.sha256(json.dumps(digest_fields).encode()).hexdigest()[:16]
        return dict(self.stats, digest=digest, **percentiles)


def _sum_stats(parts: List[Dict[str, int]]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0) + value
    return total


def _ms(value: Optional[float]) -> str:
    return "-" if value is None else "%.3f" % to_millis(value)


def run_fig3_workload(seed: int, jobs: int, out_dir: str) -> Outcome:
    config = fig3_config(seed)
    result = run_fig3(config)
    settle = config.duration // 8
    rows = [
        (
            policy,
            _ms(result.steady_state_p95(policy)),
            _ms(result.post_injection_p95(policy, settle)),
        )
        for policy in ("maglev", "feedback")
    ]
    report = format_table(("arm", "pre-fault p95 (ms)", "post-fault p95 (ms)"), rows)

    feedback = result.results["feedback"]
    maglev_post = result.post_injection_p95("maglev", settle)
    feedback_post = result.post_injection_p95("feedback", settle)
    shift = feedback.first_shift_after(config.injection_at)
    check_ok = (
        maglev_post is not None
        and feedback_post is not None
        and feedback_post < maglev_post
        and shift is not None
    )
    check_msg = "feedback post-fault p95 %s ms vs maglev %s ms; first shift after fault at %s" % (
        _ms(feedback_post),
        _ms(maglev_post),
        "none" if shift is None else "%.3f ms" % to_millis(shift),
    )
    scenarios = [r.scenario for r in result.results.values()]
    return Outcome(
        stats=_sum_stats([scenario_stats(s) for s in scenarios]),
        latencies=feedback.latencies(
            Op.GET, config.injection_at + settle, config.duration
        ),
        runs=[list(r) for r in active_probe().runs],
        check_ok=check_ok,
        check_msg=check_msg,
        report=report,
        extras={"affinity_violations": 0, "violations": 0},
    )


def run_elastic_workload(seed: int, jobs: int, out_dir: str) -> Outcome:
    config = elastic_config(seed)
    elastic = run_elastic(config)
    report = elastic.report()
    peak = elastic.peak_capacity()
    check_ok = elastic.violations == 0 and peak >= config.max_backends
    check_msg = "affinity violations %d, peak capacity %d of %d" % (
        elastic.violations,
        peak,
        config.max_backends,
    )
    scenario = elastic.scenario
    return Outcome(
        stats=scenario_stats(scenario),
        latencies=post_warmup_latencies(scenario),
        runs=[list(r) for r in active_probe().runs],
        check_ok=check_ok,
        check_msg=check_msg,
        report=report,
        extras={"affinity_violations": elastic.violations, "violations": 0},
    )


def run_campaign_workload(seed: int, jobs: int, out_dir: str) -> Outcome:
    import repro.campaign.runner as runner

    config = campaign_config(seed)
    timeline_dir = os.path.join(out_dir, "timelines")
    # Rebound in this process before the sweep forks its workers.
    runner.campaign_point = bench_point
    runner.build_point_config = variable_point_config
    try:
        campaign = run_campaign(
            config, jobs=jobs, use_cache=False, timeline_dir=timeline_dir
        )
    finally:
        runner.campaign_point = _campaign_point
        runner.build_point_config = _build_point_config
    report = campaign.table() + "\n" + campaign.summary()
    timeline_bytes = sum(os.path.getsize(path) for path in campaign.timelines)

    rows = campaign.rows
    n_invariants = len(available_invariants())
    judged = all(row["checks"] == n_invariants for row in rows)
    violations = sum(row["violations"] for row in rows)
    served = all(row["requests"] > 0 for row in rows)
    check_ok = len(rows) == config.runs and judged and violations == 0 and served
    check_msg = "%d points, %d invariants each judged=%s, %d violations, every point served=%s" % (
        len(rows),
        n_invariants,
        judged,
        violations,
        served,
    )
    latencies: List[int] = []
    runs: List[List[float]] = []
    for row in rows:
        latencies.extend(row["bench"]["latencies"])
        runs.extend(list(r) for r in row["bench"]["runs"])
    outcomes = campaign.report.outcomes
    return Outcome(
        stats=_sum_stats([row["bench"]["stats"] for row in rows]),
        latencies=latencies,
        runs=runs,
        check_ok=check_ok,
        check_msg=check_msg,
        report=report,
        extras={
            "affinity_violations": sum(
                len(row["details"].get("affinity-preserved", ())) for row in rows
            ),
            "violations": violations,
            "timeline_bytes": timeline_bytes,
            "sweep": {
                "jobs": jobs,
                "wall_s": campaign.report.wall_s,
                "elapsed_s": sum(o.elapsed_s for o in outcomes),
            },
        },
    )


RUNNERS = {
    "fig3": run_fig3_workload,
    "elastic_1k": run_elastic_workload,
    "campaign": run_campaign_workload,
}


def run(workload: str, seed: int, traced: bool, out_dir: str) -> Outcome:
    """Run one workload; the traced run keeps campaign points in-process."""
    jobs = 1 if traced else CAMPAIGN_JOBS
    return RUNNERS[workload](seed, jobs, out_dir)
