"""Compare two traced ledger records, one row per per-layer metric.

Usage, from the repository root::

    python3 perfbench/layer_diff.py BEFORE AFTER

Each side is a ledger record written by ``run.py --trace 1``
(``.perfbench/ledger-<workload>-seed<seed>.json``) or a directory of
them; rows pair up by workload, seed and metric.  After each workload's rows
comes a total row: the traced run's self time over all layers, per
completed request.  Use it to show on which layer a saving landed.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Dict, Tuple


def load(path: str) -> Dict[Tuple[str, int], dict]:
    """Records by (workload, seed), from one record file or a directory."""
    paths = (
        sorted(glob.glob(os.path.join(path, "ledger-*.json")))
        if os.path.isdir(path)
        else [path]
    )
    records: Dict[Tuple[str, int], dict] = {}
    for item in paths:
        with open(item, encoding="utf-8") as handle:
            record = json.load(handle)
        records[record["workload"], record["seed"]] = record
    if not records:
        raise SystemExit("%s: no ledger records" % path)
    return records


def change(before: float, after: float) -> str:
    if before == after:
        return "0.00%"
    if before == 0:
        return "new"
    return "%+.2f%%" % (100.0 * (after - before) / before)


def run_us_per_request(record: dict) -> float:
    return sum(record["layer_self_s"].values()) * 1e6 / record["requests"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    before, after = load(args.before), load(args.after)

    header = "| %-16s | %-40s | %14s | %14s | %9s | %-6s |" % (
        "workload/seed",
        "metric",
        "before",
        "after",
        "change",
        "unit",
    )
    rule = "-" * len(header)
    print(rule)
    print(header)
    print(rule)
    for key in sorted(set(before) & set(after)):
        a, b = before[key], after[key]
        label = "%s/%d" % key
        for name, entry in a["metrics"].items():
            if name not in b["metrics"]:
                continue
            old, new = entry["value"], b["metrics"][name]["value"]
            print(
                "| %-16s | %-40s | %14.4f | %14.4f | %9s | %-6s |"
                % (label, name, old, new, change(old, new), entry["unit"])
            )
        old, new = run_us_per_request(a), run_us_per_request(b)
        print(rule)
        print(
            "| %-16s | %-40s | %14.4f | %14.4f | %9s | %-6s |"
            % (label, "TOTAL traced self time per request", old, new, change(old, new), "us")
        )
        print(rule)
    missing = sorted(set(before) ^ set(after))
    if missing:
        print(
            "on one side only: %s" % ", ".join("%s/%d" % key for key in missing),
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
