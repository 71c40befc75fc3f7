"""Correctness gate: compare each run's outputs with the recorded reference.

``reference.json`` holds, for every CLI invocation the workloads make, a
numeric summary of ``report.json``, the sha256 of every data file, the
WaistScan cell counts and the oracle verdict, all recorded from the
package at the commit that introduced the benchmark.

* Byte-identical ``report.json``: the numbers match by construction.
* Otherwise every scalar must agree within ``RTOL`` times the norm of the
  scalars beside it, and every numeric array must agree in Frobenius norm
  and in a fixed projection within ``RTOL`` times its norm.  ``RTOL`` is the
  drift the project allows a refactor (about 1e-10 relative).
* Data-file hashes only feed ``files_identical_ratio``; ``manifest.json``
  carries wall time and is left out.
* Oracle comparisons pass when the deviation stays within the oracle's own
  truncation bound, capped at 1e-3 (acceptance criterion 1).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-10
ORACLE_CAP = 1e-3
ORACLE_FLOOR = 1e-12
UNHASHED = ("manifest.json",)


def oracle_tolerance(truncation_bound: float) -> float:
    return min(max(truncation_bound, ORACLE_FLOOR), ORACLE_CAP)


def _weights(n: int) -> np.ndarray:
    return np.cos(0.7548776662466927 * np.arange(n) + 0.5)


def _numeric_array(node):
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError):
        return None
    return arr if arr.ndim >= 1 else None


def summarize(doc) -> dict:
    """Flatten a report document into comparable numeric summaries.

    Scalars become ``["scalar", value, scale]`` where ``scale`` is the norm
    of the numeric scalars in the same object; numeric lists become
    ``["array", shape, n_nan, norm, projection, scale]`` where ``scale`` is
    the norm of the complex matrix for the ``re``/``im`` halves of one and the
    array's own norm otherwise; anything else is kept verbatim for exact
    comparison.
    """
    out = {}

    def walk(node, path, scale=None):
        if isinstance(node, dict) and sorted(node) == ["im", "re"]:
            halves = [_numeric_array(node["re"]), _numeric_array(node["im"])]
            if all(h is not None for h in halves):
                scale = math.hypot(*(float(np.linalg.norm(np.nan_to_num(h))) for h in halves))
            walk(node["re"], f"{path}/re", scale)
            walk(node["im"], f"{path}/im", scale)
        elif isinstance(node, dict):
            scalars = [v for v in node.values()
                       if isinstance(v, (int, float)) and not isinstance(v, bool)]
            scale = math.sqrt(sum(float(v) ** 2 for v in scalars if math.isfinite(v)))
            for key in sorted(node):
                value = node[key]
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    out[f"{path}/{key}"] = ["scalar", float(value), scale]
                else:
                    walk(value, f"{path}/{key}")
        elif isinstance(node, list) and node and all(isinstance(v, dict) for v in node):
            keys = sorted(node[0])
            if all(sorted(v) == keys for v in node):
                walk({k: [v[k] for v in node] for k in keys}, path)
            else:
                out[path] = ["exact", json.dumps(node, sort_keys=True)]
        elif isinstance(node, list) and (arr := _numeric_array(node)) is not None:
            finite = np.where(np.isfinite(arr), arr, 0.0).ravel()
            norm = float(np.linalg.norm(finite))
            out[path] = ["array", list(arr.shape), int(np.sum(~np.isfinite(arr))), norm,
                         float(finite @ _weights(finite.size)),
                         norm if scale is None else scale]
        else:
            out[path] = ["exact", json.dumps(node, sort_keys=True)]

    walk(doc, "")
    return out


def _agrees(got, ref) -> bool:
    if got[0] != ref[0]:
        return False
    if ref[0] == "scalar":
        if not (math.isfinite(got[1]) and math.isfinite(ref[1])):
            return got[1] == ref[1] or (math.isnan(got[1]) and math.isnan(ref[1]))
        return abs(got[1] - ref[1]) <= RTOL * max(ref[2], abs(ref[1]))
    if ref[0] == "array":
        _, shape, n_nan, norm, proj, scale = ref
        if got[1] != shape or got[2] != n_nan:
            return False
        tol = RTOL * scale
        # Cauchy-Schwarz: the weights have norm at most sqrt(size)
        return (abs(got[3] - norm) <= tol
                and abs(got[4] - proj) <= tol * math.sqrt(max(math.prod(shape), 1)))
    return got == ref


def compare_summaries(got: dict, ref: dict) -> list:
    """Paths whose values disagree with the reference (missing ones included)."""
    return sorted(path for path in ref if path not in got or not _agrees(got[path], ref[path]))


def file_hashes(out_dir: Path) -> dict:
    hashes = {}
    for path in sorted(out_dir.iterdir()):
        if path.name not in UNHASHED:
            hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def scan_cells(doc) -> tuple:
    """(cells attempted, cells failed) of a WaistScan report, else (0, 0)."""
    scan = doc.get("scan")
    if scan is None:
        return 0, 0
    return len(scan["pump_waists"]) * len(scan["collection_waists"]), len(scan["failures"])


def record_reference(out_dir: Path) -> dict:
    """Reference entry for one CLI run's output directory."""
    doc = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    cells, cell_failures = scan_cells(doc)
    entry = {
        "sha256": file_hashes(out_dir),
        "summary": summarize(doc),
        "scan_cells": cells,
        "scan_failures": cell_failures,
    }
    agreement = out_dir / "oracle_agreement.json"
    if agreement.exists():
        entry["oracle_ratio"] = oracle_ratio(agreement)
        entry["oracle_ok"] = entry["oracle_ratio"] <= 1.0
    return entry


def oracle_ratio(agreement_path: Path) -> float:
    """Largest oracle deviation as a multiple of its tolerance."""
    data = json.loads(agreement_path.read_text(encoding="utf-8"))
    return data["max_deviation"] / oracle_tolerance(data["truncation_bound"])


class Tally:
    """Operations attempted and failed over a run, and what the gate saw.

    A failure is *incorrect* when it shows a wrong output: a reference
    mismatch, a crash, a failed scan cell, an oracle deviation beyond the
    oracle's own truncation bound, or an oracle check failing that passes in
    the reference.  A draw whose deviation exceeds only the 1e-3 cap is a
    failed verification, counted in ``failed`` but not incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.incorrect = []
        self.files_identical = 0
        self.files_total = 0
        self.draw_ratio_max = 0.0
        self.cli_oracle_ratio_max = 0.0

    def record(self, label: str, attempted: int, failed: int, incorrect: bool = True) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(label)
            if incorrect:
                self.incorrect.append(label)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def check_cli(self, label: str, ref: dict, exit_code, out_dir: Path) -> None:
        """Gate one CLI run: exit status, reference numbers, scan cells, oracle."""
        cells = ref["scan_cells"]
        if exit_code != 0 or not (out_dir / "report.json").exists():
            lost = 1 + cells + ("oracle_ok" in ref)
            self.record(f"{label}: exit status {exit_code}", lost, lost)
            self.files_total += len(ref["sha256"])
            return
        hashes = file_hashes(out_dir)
        self.files_total += len(set(hashes) | set(ref["sha256"]))
        self.files_identical += sum(
            1 for name, digest in hashes.items() if ref["sha256"].get(name) == digest
        )
        if hashes.get("report.json") == ref["sha256"]["report.json"]:
            differing, cell_failures = [], ref["scan_failures"]
        else:
            doc = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
            differing = compare_summaries(summarize(doc), ref["summary"])
            cells, cell_failures = scan_cells(doc)
        differing += sorted(set(ref["sha256"]) - set(hashes))
        self.record(f"{label}: differs from the reference at {differing[:3]}",
                    1, int(bool(differing)))
        if cells:
            self.record(f"{label}: failed scan cells", cells, cell_failures)
        if "oracle_ok" in ref:
            agreement = out_dir / "oracle_agreement.json"
            ratio = oracle_ratio(agreement) if agreement.exists() else math.inf
            self.cli_oracle_ratio_max = max(self.cli_oracle_ratio_max, ratio)
            self.record(f"{label}: oracle deviation {ratio:.3g} x its bound",
                        1, int(ratio > 1.0), incorrect=ref["oracle_ok"])

    def check_draw(self, label: str, deviations: list, truncation_bound: float) -> None:
        worst = max(deviations)
        ratio = worst / oracle_tolerance(truncation_bound)
        self.draw_ratio_max = max(self.draw_ratio_max, ratio)
        self.record(f"{label}: oracle deviation {ratio:.3g} x its bound", 1, int(ratio > 1.0),
                    incorrect=worst > max(truncation_bound, ORACLE_FLOOR))
