"""Per-layer metrics and the traced run's guards.

Times come from the :class:`~ledger.Ledger` (self time accrued inside
``run_until``, normalised by completed requests or by packets the LB
received); counts come from the program's own statistics on the
scenarios the probe captured.  See README.md for which end-to-end
metric each row should move and on which workload.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List, Tuple

#: name → unit, in report order.  ``sweep.*`` and ``trace.*`` are
#: filled in by the parent process from the untraced run.
PER_LAYER: Dict[str, str] = {
    "sim.self_us_per_request": "us",
    "sim.events_per_request": "count",
    "sim.peak_queue_depth": "count",
    "net.self_us_per_packet": "us",
    "net.sends_per_request": "count",
    "net.drops_per_1k_packets": "count",
    "lb.self_us_per_packet": "us",
    "lb.new_flow_share": "ratio",
    "lb.maglev_builds": "count",
    "lb.maglev_build_ms": "ms",
    "core.tap_us_per_packet": "us",
    "core.samples_per_request": "count",
    "core.shifts": "count",
    "core.reaction_ms": "ms",
    "controllers.update_us_per_request": "us",
    "transport.self_us_per_packet": "us",
    "transport.segments_per_request": "count",
    "transport.retransmits_per_1k_requests": "count",
    "app.self_us_per_request": "us",
    "resilience.self_us_per_request": "us",
    "resilience.retries_per_1k_requests": "count",
    "resilience.mode_changes": "count",
    "resilience.breaker_edges": "count",
    "fleet.tick_ms": "ms",
    "fleet.decisions": "count",
    "fleet.affinity_violations": "count",
    "faults.windows": "count",
    "campaign.audit_us_per_packet": "us",
    "campaign.evaluate_ms": "ms",
    "campaign.violations": "count",
    "insight.tap_us_per_packet": "us",
    "insight.timeline_kb": "kB",
    "sweep.parallel_efficiency": "ratio",
    "sweep.overhead_s": "s",
    "harness.import_s": "s",
    "harness.build_s": "s",
    "harness.collect_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _reaction_ms(scenarios) -> float:
    """Median time from a fault window's start to the next weight shift."""
    reactions = []
    for scenario in scenarios:
        if scenario.feedback is None or scenario.injector is None:
            continue
        shifts = [e.time for e in scenario.feedback.shift_events()]
        for armed in scenario.injector.armed_windows:
            start = armed.window.start
            after = [t for t in shifts if t >= start]
            if after:
                reactions.append((after[0] - start) / 1e6)
    return median(reactions) if reactions else 0.0


def layer_metrics(ledger, scenarios, outcome, import_s: float, done: float) -> Dict[str, float]:
    """Every per-layer metric the traced child can compute itself."""
    stats = outcome.stats
    requests = stats["requests"]
    packets = stats["lb_packets"]
    run_self = ledger.run_self_s
    pipes = [p for s in scenarios for p in s.network.pipes().values()]
    sent = sum(p.stats.packets_sent for p in pipes)
    drops = sum(p.stats.packets_dropped for p in pipes)
    clients = [c for s in scenarios for c in s.clients]
    feedbacks = [s.feedback for s in scenarios if s.feedback is not None]
    fleets = [s.fleet for s in scenarios if s.fleet is not None]
    breakers = [s.breakers for s in scenarios if s.breakers is not None]

    def per_request_us(layer: str) -> float:
        return _ratio(run_self.get(layer, 0.0) * 1e6, requests)

    def per_packet_us(layer: str) -> float:
        return _ratio(run_self.get(layer, 0.0) * 1e6, packets)

    return {
        "sim.self_us_per_request": per_request_us("sim"),
        "sim.events_per_request": _ratio(stats["events"], requests),
        "sim.peak_queue_depth": max(s.sim.peak_queue_depth for s in scenarios),
        "net.self_us_per_packet": per_packet_us("net"),
        "net.sends_per_request": _ratio(ledger.calls["Pipe.send"], requests),
        "net.drops_per_1k_packets": _ratio(drops * 1000.0, sent),
        "lb.self_us_per_packet": per_packet_us("lb"),
        "lb.new_flow_share": _ratio(sum(s.lb.stats.new_flows for s in scenarios), packets),
        "lb.maglev_builds": ledger.calls["MaglevTable.build"],
        "lb.maglev_build_ms": ledger.inclusive_s["MaglevTable.build"] * 1e3,
        "core.tap_us_per_packet": per_packet_us("core"),
        "core.samples_per_request": _ratio(sum(f.sample_count for f in feedbacks), requests),
        "core.shifts": stats["shifts"],
        "core.reaction_ms": _reaction_ms(scenarios),
        "controllers.update_us_per_request": per_request_us("controllers"),
        "transport.self_us_per_packet": per_packet_us("transport"),
        "transport.segments_per_request": _ratio(
            sum(c.segments_sent for c in ledger.connection_stats), requests
        ),
        "transport.retransmits_per_1k_requests": _ratio(
            sum(c.retransmissions for c in ledger.connection_stats) * 1000.0, requests
        ),
        "app.self_us_per_request": per_request_us("app"),
        "resilience.self_us_per_request": per_request_us("resilience"),
        "resilience.retries_per_1k_requests": _ratio(
            sum(c.retry_stats.retries for c in clients) * 1000.0, requests
        ),
        "resilience.mode_changes": sum(len(f.mode_transitions()) for f in feedbacks),
        "resilience.breaker_edges": sum(len(b.transitions) for b in breakers),
        "fleet.tick_ms": run_self.get("fleet", 0.0) * 1e3,
        "fleet.decisions": sum(len(f.decisions) for f in fleets),
        "fleet.affinity_violations": outcome.extras["affinity_violations"],
        "faults.windows": sum(
            len(s.injector.armed_windows) for s in scenarios if s.injector is not None
        ),
        "campaign.audit_us_per_packet": per_packet_us("campaign"),
        "campaign.evaluate_ms": ledger.inclusive_s["evaluate"] * 1e3,
        "campaign.violations": outcome.extras["violations"],
        "insight.tap_us_per_packet": per_packet_us("insight"),
        "insight.timeline_kb": outcome.extras.get("timeline_bytes", 0) / 1024.0,
        "harness.import_s": import_s,
        "harness.build_s": ledger.inclusive_s["build_scenario"],
        "harness.collect_s": done - max(exit for _enter, exit in outcome.runs),
    }


#: Most of ``run_until``'s own time that the traced run may leave
#: unclaimed by any other span (pipe pumps, timers and the event loop).
#: It is 13–22% on the three workloads; a boundary whose calls escape
#: their wrapper moves its cost here.
SIM_RESIDUAL_MAX = 0.35


def guards(ledger, scenarios, outcome) -> List[Tuple[str, float, float, bool]]:
    """``(name, measured, expected, ok)`` for coverage and partition.

    Coverage: each wrapper saw exactly the calls the program counted, so
    no call path bypasses a span and no method was prebound before its
    wrapper went in.  Partition: layer self times add up to the run.
    That sum is an identity of the ledger (nested self times telescope
    to the root's inclusive time), as is its agreement with the probe's
    stamps, whose wrapper runs inside the root span; both are kept as
    bookkeeping checks.  The residual check is the one that can fail
    when time is charged to the wrong layer: ``sim``'s share of the run
    stays under :data:`SIM_RESIDUAL_MAX`.
    """
    calls = ledger.calls
    lbs = [s.lb for s in scenarios]
    pipes = [p for s in scenarios for p in s.network.pipes().values()]
    feedback_lbs = [s.lb for s in scenarios if s.feedback is not None]
    checks = [
        (
            "LoadBalancer.on_packet calls == lb packets_in",
            calls["LoadBalancer.on_packet"],
            sum(lb.stats.packets_in for lb in lbs),
        ),
        (
            "Network.send_via calls == lb packets_forwarded",
            calls["Network.send_via"],
            sum(lb.stats.packets_forwarded for lb in lbs),
        ),
        (
            "Pipe.send calls == pipe packets_sent",
            calls["Pipe.send"],
            sum(p.stats.packets_sent for p in pipes),
        ),
        (
            "Network.send_from calls == connection segments_sent",
            calls["Network.send_from"],
            sum(c.segments_sent for c in ledger.connection_stats),
        ),
        (
            "Host.on_packet + LoadBalancer.on_packet calls == pipe packets_delivered",
            calls["Host.on_packet"] + calls["LoadBalancer.on_packet"],
            sum(p.stats.packets_delivered for p in pipes),
        ),
        (
            "feedback tap calls == feedback-arm lb packets_forwarded",
            calls["tap.core"],
            sum(lb.stats.packets_forwarded for lb in feedback_lbs),
        ),
    ]
    results = [(name, float(got), float(want), got == want) for name, got, want in checks]

    layer_sum = sum(ledger.run_self_s.values())
    run_s = ledger.inclusive_s["Simulator.run_until"]
    probe_run_s = sum(exit - enter for enter, exit in outcome.runs)
    results.append(
        (
            "sum of layer self times == traced run_until time",
            layer_sum,
            run_s,
            abs(layer_sum - run_s) <= 1e-6 * run_s,
        )
    )
    results.append(
        (
            "traced run_until time == probe-stamped run time (within 1%)",
            run_s,
            probe_run_s,
            abs(run_s - probe_run_s) <= 0.01 * probe_run_s,
        )
    )
    residual = ledger.run_self_s.get("sim", 0.0) / run_s
    results.append(
        (
            "sim residual share of traced run_until time <= %.2f" % SIM_RESIDUAL_MAX,
            residual,
            SIM_RESIDUAL_MAX,
            residual <= SIM_RESIDUAL_MAX,
        )
    )
    results.append(("every span closed", float(ledger.balanced()), 1.0, ledger.balanced()))
    return results
