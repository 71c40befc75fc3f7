#!/usr/bin/env python3
"""Append a baseline entry to ``baseline.json`` from the run records.

    python3 perfbench/record_baseline.py --label "seed" --commit 5d8b761

Reads every record that ``run.py`` left under ``.perfbench_runs/`` and, per
workload, stores the median and quartiles of each end-to-end metric over
the untraced runs, the operations attempted and failed, and the median of
each per-layer figure over the traced runs.  Clear ``.perfbench_runs/``
before the runs that an entry should summarize.
"""

from __future__ import annotations

import argparse
import json
import statistics

from run import BENCH_DIR, RUNS_DIR, WORKLOADS


def _summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median if median else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--commit", required=True)
    args = parser.parse_args()

    records = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(RUNS_DIR.glob("*.json"))]
    workloads = {}
    for name in WORKLOADS:
        timed = [r for r in records if r["workload"] == name and not r["trace"]]
        traced = [r for r in records if r["workload"] == name and r["trace"]]
        if not timed:
            continue
        entry = {
            "runs": len(timed),
            "seeds": sorted(r["seed"] for r in timed),
            "seconds": sorted({r["seconds"] for r in timed}),
            "attempted": sum(r["attempted"] for r in timed),
            "failed": sum(r["failed"] for r in timed),
            "failures": sorted({label for r in timed for label in r["failures"]}),
            "end_to_end": {
                key: dict(_summary([r["metrics"][key]["value"] for r in timed]),
                          unit=timed[0]["metrics"][key]["unit"])
                for key in timed[0]["metrics"]
            },
        }
        if traced:
            entry["traced_runs"] = len(traced)
            entry["per_layer"] = {
                key: {"median": statistics.median(r["metrics"][key]["value"] for r in traced),
                      "unit": traced[0]["metrics"][key]["unit"]}
                for key in traced[0]["metrics"]
            }
        workloads[name] = entry

    path = BENCH_DIR / "baseline.json"
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"entries": []}
    environments = {json.dumps(r["environment"], sort_keys=True) for r in records}
    doc["entries"].append({
        "label": args.label,
        "commit": args.commit,
        "environment": [json.loads(e) for e in sorted(environments)],
        "workloads": workloads,
    })
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
