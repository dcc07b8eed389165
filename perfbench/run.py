"""Scenario benchmark: end-to-end metrics (timed) or the layer ledger (traced).

Usage, from the repository root::

    python3 perfbench/run.py --workload fig3 --seed 11 --seconds 40 --trace 0
    python3 perfbench/run.py --workload campaign --seed 1 --trace 1

Each repetition is a fresh ``python3 perfbench/rep.py`` process, so
set-up is paid as a CLI user pays it.  ``--trace 0`` repeats the
workload until ``--seconds`` is spent, fills the remainder with
set-up-only repetitions, and reports the median of each end-to-end
metric.  ``--trace 1`` runs the workload once untraced and once traced,
checks that tracing changed no simulated output and that the spans
cover the program's own counters, writes the ledger record to
``.perfbench/ledger-<workload>-seed<seed>.json`` and reports the
per-layer metrics.  The last line of standard output is the JSON
result; everything before it is for people.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List

from layers import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("fig3", "elastic_1k", "campaign")
DEFAULT_SEEDS = {"fig3": 11, "elastic_1k": 11, "campaign": 1}
#: Seeds no tuning looked at: a gain claimed on a default seed must also
#: hold on its workload's held-out seed.
HELD_OUT_SEEDS = {"fig3": 23, "elastic_1k": 23, "campaign": 2}

#: name → unit, in report order (``BENCHMARK.json`` holds the bounds).
END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "wall_us_per_request": "us",
    "wall_us_per_packet": "us",
    "peak_rss_mb": "MB",
    "sim_rps": "req/s",
    "p50_ms": "ms",
    "p95_ms": "ms",
    "p99_ms": "ms",
    "served_share": "ratio",
}

#: Set-up samples per run: at least this many, at most the second.
SETUP_SAMPLES = (5, 15)
#: Every repetition of one invocation must end this long after it starts.
BUDGET_S = 170


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, deadline: float) -> Dict[str, object]:
    """Run one repetition in a fresh process; its result plus spawn stamp."""
    command = [
        sys.executable,
        os.path.join(HERE, "rep.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--mode",
        mode,
        "--out",
        OUT,
    ]
    spawned = time.monotonic()
    # A session of its own, so a timeout can stop sweep workers too.
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=max(0.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed("%s %s repetition timed out" % (workload, mode))
    finished = time.monotonic()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            "%s %s repetition exited with %d" % (workload, mode, proc.returncode)
        )
    result = json.loads(lines[-1])
    result["spawned"] = spawned
    result["cost_s"] = finished - spawned
    return result


def rep_failed(rep: Dict[str, object]) -> int:
    """Abandoned requests, or all of them when the output check failed."""
    return rep["abandoned"] if rep["check_ok"] else rep["attempted"]


def rep_metrics(rep: Dict[str, object]) -> Dict[str, float]:
    """End-to-end metrics of one timed repetition.

    ``failed_share`` is printed for people but kept out of the JSON:
    regression bounds are shares of a median, which a metric that reads
    0 (fig3 never fails a request) cannot have, so ``served_share``
    carries the same information.
    """
    # Summed ``run_until`` time; sweep workers run side by side, so the
    # campaign's sum is shared among its jobs.
    jobs = rep["sweep"]["jobs"] if rep["sweep"] else 1
    run_s = rep["run_sum_s"] / jobs
    failed = rep_failed(rep)
    return {
        "setup_s": rep["first_event"] - rep["spawned"],
        "total_s": rep["done"] - rep["spawned"],
        "wall_us_per_request": run_s / rep["requests"] * 1e6,
        "wall_us_per_packet": run_s / rep["lb_packets"] * 1e6,
        "peak_rss_mb": rep["peak_rss_kb"] / 1024.0,
        "sim_rps": rep["requests"] / (rep["sim_ns"] / 1e9),
        "p50_ms": rep["p50_ns"] / 1e6,
        "p95_ms": rep["p95_ns"] / 1e6,
        "p99_ms": rep["p99_ns"] / 1e6,
        "served_share": 1.0 - failed / rep["attempted"],
        "failed_share": failed / rep["attempted"],
    }


def timed(workload: str, seed: int, seconds: float, budget: float) -> Dict[str, object]:
    """Repeat the workload for ``seconds``; medians of each metric."""
    deadline = time.monotonic() + seconds
    reps: List[Dict[str, object]] = []
    while True:
        reps.append(spawn(workload, seed, "timed", budget))
        typical = median(r["cost_s"] for r in reps)
        if time.monotonic() + typical > deadline:
            break
    setups = [r["first_event"] - r["spawned"] for r in reps]
    probe_costs: List[float] = []
    low, high = SETUP_SAMPLES
    while len(setups) < high:
        if len(setups) >= low and probe_costs:
            if time.monotonic() + median(probe_costs) > deadline:
                break
        probe = spawn(workload, seed, "setup", budget)
        probe_costs.append(probe["cost_s"])
        setups.append(probe["first_event"] - probe["spawned"])

    per_rep = [rep_metrics(r) for r in reps]
    metrics = {name: median(m[name] for m in per_rep) for name in per_rep[0]}
    metrics["setup_s"] = median(setups)

    correct = all(r["check_ok"] for r in reps)
    for rep in reps:
        if not rep["check_ok"]:
            print("output check failed: %s" % rep["check_msg"], file=sys.stderr)
    digests = sorted({r["digest"] for r in reps})
    if len(digests) > 1:
        correct = False
        print("simulated outputs differ between repetitions: %s" % digests, file=sys.stderr)
    print(
        "%s seed=%d: %d timed repetitions (%s us/request), %d set-up samples, "
        "digest %s, check: %s"
        % (
            workload,
            seed,
            len(reps),
            ", ".join("%.1f" % m["wall_us_per_request"] for m in per_rep),
            len(setups),
            ",".join(digests),
            reps[0]["check_msg"],
        )
    )
    for name, unit in list(END_TO_END.items()) + [("failed_share", "ratio")]:
        print("  %-22s %14.6f %s" % (name, metrics[name], unit))
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(rep_failed(r) if correct else r["attempted"] for r in reps),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END.items()
        },
    }


def traced(workload: str, seed: int, budget: float) -> Dict[str, object]:
    """One untraced and one traced run; guards, ledger record, layer metrics."""
    untraced = spawn(workload, seed, "timed", budget)
    spans = spawn(workload, seed, "traced", budget)

    problems = []
    if spans["digest"] != untraced["digest"]:
        problems.append(
            "passivity: traced digest %s != untraced %s"
            % (spans["digest"], untraced["digest"])
        )
    for name, got, want, ok in spans["guards"]:
        if not ok:
            problems.append("guard failed: %s (%r vs %r)" % (name, got, want))

    layers = dict(spans["layers"])
    sweep = untraced.get("sweep")
    if sweep:
        layers["sweep.parallel_efficiency"] = sweep["elapsed_s"] / (
            sweep["jobs"] * sweep["wall_s"]
        )
        layers["sweep.overhead_s"] = sweep["wall_s"] - sweep["elapsed_s"] / sweep["jobs"]
    else:
        layers["sweep.parallel_efficiency"] = 0.0
        layers["sweep.overhead_s"] = 0.0
    layers["trace.overhead_ratio"] = spans["run_sum_s"] / untraced["run_sum_s"]

    record = {
        "workload": workload,
        "seed": seed,
        "digest": spans["digest"],
        "requests": spans["requests"],
        "lb_packets": spans["lb_packets"],
        "layer_self_s": spans["layer_self_s"],
        "metrics": {name: {"value": layers[name], "unit": PER_LAYER[name]} for name in PER_LAYER},
        "guards": spans["guards"],
        "spans": spans["spans"],
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "ledger-%s-seed%d.json" % (workload, seed))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")

    print("%s seed=%d traced: digest %s, ledger written to %s" % (workload, seed, spans["digest"], path))
    for site in spans["spans"]:
        print(
            "  %-38s %-12s %10d calls %10.4f s self"
            % (site["site"], site["layer"], site["calls"], site["self_s"])
        )
    for name, unit in PER_LAYER.items():
        print("  %-40s %16.6f %s" % (name, layers[name], unit))
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        raise ChildFailed("traced run failed %d guard(s)" % len(problems))

    runs = (untraced, spans)
    return {
        "correct": all(r["check_ok"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(rep_failed(r) for r in runs),
        "metrics": record["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument(
        "--seed",
        type=int,
        help="workload seed (default %s; held out %s)" % (DEFAULT_SEEDS, HELD_OUT_SEEDS),
    )
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program source under %s/src" % ROOT, file=sys.stderr)
        return 2
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    budget = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            result = traced(args.workload, seed, budget)
        else:
            result = timed(args.workload, seed, args.seconds, budget)
    except ChildFailed as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
