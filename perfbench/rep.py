"""One repetition of a workload in a fresh process; prints one JSON line.

``run.py`` spawns this so that set-up is measured from a fresh
interpreter, as a CLI user pays it.  Modes:

* ``timed``  — probe only; the run the end-to-end metrics come from.
* ``setup``  — stop at the first simulated event (set-up samples).
* ``traced`` — probe plus ledger; per-layer metrics and guards, with
  campaign points run in-process so every span lands in this ledger.

Stamps are ``time.monotonic()``, one clock for this process, the
parent and forked sweep workers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _peak_rss_kb() -> int:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "setup", "traced"), required=True)
    parser.add_argument("--out", required=True, help="directory for run artifacts")
    args = parser.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no program source at %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    started = time.monotonic()
    import ledger
    import workloads

    import_s = time.monotonic() - started
    if args.workload not in workloads.RUNNERS:
        print("perfbench: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)

    probe = ledger.Probe(stop_at_first_event=args.mode == "setup")
    probe.install()
    spans = None
    if args.mode == "traced":
        spans = ledger.Ledger()
        spans.install()
    try:
        outcome = workloads.run(
            args.workload, args.seed, traced=spans is not None, out_dir=args.out
        )
    except ledger.SetupReached as reached:
        print(json.dumps({"first_event": reached.stamp, "import_s": import_s}))
        return 0
    report_path = os.path.join(args.out, "report-%s.txt" % args.workload)
    with open(report_path, "w", encoding="utf-8") as handle:
        handle.write(outcome.report + "\n")
    done = time.monotonic()
    if spans is not None:
        spans.uninstall()
    probe.uninstall()

    runs = outcome.runs
    result = dict(
        outcome.summary(),
        first_event=min(enter for enter, _exit in runs),
        run_sum_s=sum(exit - enter for enter, exit in runs),
        done=done,
        import_s=import_s,
        peak_rss_kb=_peak_rss_kb(),
        check_ok=outcome.check_ok,
        check_msg=outcome.check_msg,
        sweep=outcome.extras.get("sweep"),
    )
    if spans is not None:
        import layers

        scenarios = probe.scenarios
        result["layers"] = layers.layer_metrics(spans, scenarios, outcome, import_s, done)
        result["guards"] = layers.guards(spans, scenarios, outcome)
        result["spans"] = spans.spans_table()
        result["layer_self_s"] = dict(spans.run_self_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
