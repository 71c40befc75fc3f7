#!/usr/bin/env python3
"""Record ``reference.json``: what every CLI run of the workloads emits.

    python3 perfbench/make_reference.py

Runs each distinct CLI invocation of every workload, at full and tiny size,
once against this checkout's sources and stores the numeric summary, file
hashes, WaistScan cell counts and oracle verdict that gate.py compares
later runs with.  Record it only from a commit whose outputs are trusted:
every later run is judged against it.
"""

from __future__ import annotations

import json
import shutil

from run import BENCH_DIR, RUNS_DIR, _cap_blas_threads, _environment, _load_package


def main() -> int:
    env = _environment(*_cap_blas_threads())
    _load_package()
    import lgsqueeze
    from gate import record_reference
    from workloads import WORKLOADS, Workload

    runs = {}
    for name in WORKLOADS:
        for tiny in (False, True):
            for run in Workload(name, seed=0, tiny=tiny).cli_runs():
                runs[run.label] = run
    work_dir = RUNS_DIR / "reference"
    entries = {}
    try:
        for label, run in sorted(runs.items()):
            exit_code, out = run.execute(work_dir)
            if exit_code != 0:
                raise SystemExit(f"error: {label} exited with status {exit_code}")
            entries[label] = record_reference(out)
            print(f"{label}: {len(entries[label]['sha256'])} files, "
                  f"oracle ratio {entries[label].get('oracle_ratio', '-')}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    doc = {"lgsqueeze_version": lgsqueeze.__version__, "environment": env, "runs": entries}
    (BENCH_DIR / "reference.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
