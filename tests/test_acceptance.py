"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and their key numbers.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import random_normal_symmetric, random_symmetric
from lgsqueeze.coupling import InteractionType, assemble_squeeze_matrix
from lgsqueeze.fock_oracle import ORACLE_CAP, TruncatedFockSpace, deviations, vacuum_statistics
from lgsqueeze.modes import BeamGeometry, ModeIndex, build_basis, transverse_inner_product
from lgsqueeze.scenarios import default_config, run_scenario
from lgsqueeze.squeeze_core import (
    SqueezeMatrix,
    bogoliubov_matrix,
    bogoliubov_metric,
    state_report,
)

TWO_BEAM = InteractionType.FULL_CROSSTALK


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_oracle_equivalence():
    """Closed-form statistics match the truncated-Fock brute force.

    Thirty random symmetric matrices with spectral norm up to 0.7 on one,
    two and three modes; every statistic must agree with the direct
    expectation within the self-reported truncation estimate, capped at
    1e-3 for the n_cut = 8 spaces used here.
    """
    rng = np.random.default_rng(20260809)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(1, 4))
        target = rng.uniform(0.1, 0.7)
        xi = random_symmetric(rng, n, scale=target)
        sq = SqueezeMatrix(xi=xi, basis=None, interaction=TWO_BEAM)
        rep = state_report(sq)
        oracle = vacuum_statistics(xi, TruncatedFockSpace(2 * n, 8))
        tol = min(max(oracle.truncation_bound, 1e-12), ORACLE_CAP)
        deviation = max(deviations(oracle, rep, single_beam=False).values())
        worst = max(worst, deviation / tol)
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 1 (oracle equivalence)",
        worst < 1.0,
        f"worst deviation {worst:.3f} x tolerance over 30 draws, {elapsed:.0f}s",
    )


def test_criterion_2_exact_identities():
    """Trace identity, symplectic identity, uncertainty equality and the
    real-symmetric / positive-semidefinite special cases on randomized
    suites up to N = 25."""
    rng = np.random.default_rng(7)
    worst = {"trace": 0.0, "symplectic": 0.0, "uncertainty": 0.0,
             "real_sym": 0.0, "psd": 0.0}
    for n in (2, 5, 12, 25):
        sq = SqueezeMatrix(xi=random_symmetric(rng, n, scale=0.9), basis=None,
                           interaction=TWO_BEAM)
        rep = state_report(sq)
        v1, v2 = rep.var_X1, rep.var_X2
        s1, s2 = rep.scalar_var
        worst["trace"] = max(worst["trace"],
                             abs(np.trace(v1).real - s1), abs(np.trace(v2).real - s2))
        b = bogoliubov_matrix(sq)
        k = bogoliubov_metric(n)
        worst["symplectic"] = max(worst["symplectic"],
                                  np.abs(b @ k @ b.conj().T - k).max())
        # uncertainty equality on the normal (and symmetric) class
        sqn = SqueezeMatrix(xi=random_normal_symmetric(rng, n, scale=0.9),
                            basis=None, interaction=TWO_BEAM)
        rep_normal = state_report(sqn)
        w1, w2, cov = rep_normal.var_X1, rep_normal.var_X2, rep_normal.cross_cov
        worst["uncertainty"] = max(
            worst["uncertainty"],
            np.abs(w1 @ w2 - 0.25 * (cov @ cov) - np.eye(n) / 16.0).max(),
        )
        # real symmetric: zero cross covariance and V1 V2 = I/16
        a = rng.normal(size=(n, n))
        sqr = SqueezeMatrix(xi=0.4 * (a + a.T) / n ** 0.5, basis=None,
                            interaction=TWO_BEAM)
        rep_sym = state_report(sqr)
        worst["real_sym"] = max(
            worst["real_sym"],
            np.abs(rep_sym.var_X1 @ rep_sym.var_X2 - np.eye(n) / 16.0).max(),
            np.abs(rep_sym.cross_cov).max(),
        )
        # real symmetric positive semidefinite: pure exponential variances
        import scipy.linalg

        psd = 0.3 * (a @ a.T) / n
        sqp = SqueezeMatrix(xi=psd, basis=None, interaction=TWO_BEAM)
        rep_psd = state_report(sqp)
        p1, p2 = rep_psd.var_X1, rep_psd.var_X2
        worst["psd"] = max(
            worst["psd"],
            np.abs(p1 - 0.25 * scipy.linalg.expm(-2 * psd)).max(),
            np.abs(p2 - 0.25 * scipy.linalg.expm(2 * psd)).max(),
        )
    ok = (worst["trace"] < 1e-10 and worst["symplectic"] < 1e-12
          and worst["uncertainty"] < 1e-10 and worst["real_sym"] < 1e-10
          and worst["psd"] < 1e-10)
    _verdict(
        "criterion 2 (exact identities)",
        ok,
        "residuals " + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()),
    )


def test_criterion_3_mode_orthonormality():
    """Laguerre-Gauss orthonormality over the (2, 4) basis at five planes."""
    geom = BeamGeometry(wavelength=0.795, waist_w0=80.0)
    basis = build_basis(2, 4)
    z_r = geom.rayleigh_zR
    worst = 0.0
    for z in (0.0, z_r, -z_r, 1.5 * z_r, -1.5 * z_r):
        for i, a in enumerate(basis.order):
            for b in basis.order[i:]:
                if a.ell != b.ell:
                    continue  # exactly zero by the azimuthal integral
                value = transverse_inner_product(a, b, z, geom)
                worst = max(worst, abs(value - (1.0 if a == b else 0.0)))
    _verdict(
        "criterion 3 (LG orthonormality)",
        worst < 1e-8,
        f"worst residual {worst:.2e} over five planes",
    )


def test_criterion_4_oam_selection(psr_results, pdc_benchmark):
    """Assembled matrices have machine-exact zeros off the OAM-conserving
    blocks for Gaussian pumps."""
    violations = 0
    for res in (psr_results["FwmTwoPhoton"], pdc_benchmark):
        basis = res.squeeze.basis
        xi = res.squeeze.xi
        for i, sig in enumerate(basis.order):
            for j, idl in enumerate(basis.order):
                if sig.ell + idl.ell != 0 and xi[i, j] != 0.0:
                    violations += 1
    _verdict(
        "criterion 4 (OAM selection)",
        violations == 0,
        f"{violations} nonzero forbidden entries across FWM and PDC matrices",
    )


def test_criterion_5_psr_regressions(psr_results):
    """Frozen-gain photon-number ladder and fundamental-mode noise behaviour.

    Reference values: mean photon number 1.14 with radial crosstalk and 1.25
    with full crosstalk (both within 15 percent, ordering strict); the
    beam-integrated squeezed-quadrature noise grows by about 3 percent
    (ratio 1.03 within 15 percent); the fundamental mode's own noise rises
    strictly under radial crosstalk and gains nothing further from the
    opposite-OAM channels.
    """
    n_base = psr_results["PsrSinglePhoton"].report.nbar_total
    n_p = psr_results["PsrPCrosstalk"].report.nbar_total
    n_f = psr_results["FwmTwoPhoton"].report.nbar_total
    mp = psr_results["PsrPCrosstalk"].metrics
    mf = psr_results["FwmTwoPhoton"].metrics

    checks = {
        "nbar_p_within_15pct": abs(n_p - 1.14) / 1.14 < 0.15,
        "nbar_full_within_15pct": abs(n_f - 1.25) / 1.25 < 0.15,
        "strict_ordering": n_base < n_p < n_f,
        "scalar_noise_ratio_within_15pct": abs(mp["scalar_noise_ratio"] - 1.03)
        / 1.03 < 0.15,
        "u00_noise_strictly_increases": mp["u00_noise_ratio"] > 1.0,
        "fwm_adds_no_u00_noise": abs(
            mf["u00_variance_x1"] / mp["u00_variance_x1"] - 1.0
        ) < 1e-9,
        "fwm_scalar_within_band": mf["scalar_noise_ratio"] < 1.03 * 1.15,
    }
    _verdict(
        "criterion 5 (PSR/FWM regressions)",
        all(checks.values()),
        f"nbar 1:{n_p:.4f}:{n_f:.4f}, scalar ratio {mp['scalar_noise_ratio']:.4f}, "
        f"u00 ratio {mp['u00_noise_ratio']:.4f}; "
        + ", ".join(k for k, v in checks.items() if not v) if not all(checks.values())
        else f"nbar 1:{n_p:.4f}:{n_f:.4f}, scalar ratio {mp['scalar_noise_ratio']:.4f}, "
        f"u00 ratio {mp['u00_noise_ratio']:.4f}",
    )


def test_criterion_6_pdc_eigenmode_gains(pdc_benchmark, pdc_eigen_pump):
    """Benchmark variances near 0.32 (fundamental) and 0.28 (top eigenmode),
    strict ordering with at least 0.3 dB of gap; eigenmode pumping reaches
    about 0.23, at least 0.8 dB below the benchmark fundamental."""
    mb = pdc_benchmark.metrics
    me = pdc_eigen_pump.metrics
    u00 = mb["u00_variance_normalized"]
    lam1 = mb["lambda1_variance_normalized"]
    lam1_pumped = me["lambda1_variance_normalized"]
    checks = {
        "u00_near_0.32": abs(u00 - 0.32) / 0.32 < 0.15,
        "lambda1_near_0.28": abs(lam1 - 0.28) / 0.28 < 0.15,
        "strict_ordering": lam1 < u00,
        "gap_at_least_0.3dB": mb["eigen_improvement_db"] >= 0.3,
        "pumped_near_0.23": abs(lam1_pumped - 0.23) / 0.23 < 0.15,
        "pumped_gain_at_least_0.8dB": me["improvement_vs_benchmark_u00_db"] >= 0.8,
    }
    _verdict(
        "criterion 6 (PDC eigenmode gains)",
        all(checks.values()),
        f"u00 {u00:.4f}, lam1 {lam1:.4f} ({mb['eigen_improvement_db']:.2f} dB), "
        f"pumped lam1 {lam1_pumped:.4f} "
        f"({me['improvement_vs_benchmark_u00_db']:.2f} dB vs benchmark u00)"
        + ("" if all(checks.values())
           else "; failed: " + ", ".join(k for k, v in checks.items() if not v)),
    )


def test_criterion_7_waist_scan():
    """The figure-of-merit argmax lies in the island containing the
    (200, 200) um benchmark; the metric is a probability product in [0, 1];
    the full 8x8 scan completes at desk scale."""
    start = time.perf_counter()
    result = run_scenario(default_config("WaistScan"))
    elapsed = time.perf_counter() - start
    scan = result.scan
    metric = np.asarray(scan["metric"], dtype=float)
    checks = {
        "argmax_in_island": bool(scan["island"]["argmax_in_island"]),
        "metric_in_unit_interval": bool(
            np.nanmin(metric) >= 0.0 and np.nanmax(metric) <= 1.0
        ),
        "no_cell_failures": scan["failures"] == [],
        "desk_scale_runtime": elapsed < 300.0,
    }
    _verdict(
        "criterion 7 (waist scan)",
        all(checks.values()),
        f"argmax at ({scan['argmax_pump']:.0f}, {scan['argmax_collection']:.0f}) um, "
        f"island threshold {scan['island']['threshold']:.3f}, {elapsed:.1f}s"
        + ("" if all(checks.values())
           else "; failed: " + ", ".join(k for k, v in checks.items() if not v)),
    )


def test_criterion_8_heralding(pdc_heralding):
    """Doubling the pump waist raises the diagonal dominance of the pair
    matrix while the fundamental's photon share strictly drops."""
    m = pdc_heralding.metrics
    checks = {
        "diag_dominance_increases": m["diag_dominance"] > m["benchmark_diag_dominance"],
        "n00_share_decreases": m["n00_share"] < m["benchmark_n00_share"],
    }
    _verdict(
        "criterion 8 (heralding)",
        all(checks.values()),
        f"dominance {m['benchmark_diag_dominance']:.4f} -> {m['diag_dominance']:.4f}, "
        f"n00 share {m['benchmark_n00_share']:.4f} -> {m['n00_share']:.4f}",
    )


def test_criterion_9_determinism(tmp_path):
    """Re-running a scenario from its manifest's resolved configuration
    reproduces every data file byte for byte."""
    from lgsqueeze.cli import main as cli_main

    out1 = tmp_path / "run1"
    assert cli_main(["--scenario", "PdcBenchmark", "--out", str(out1), "--quiet"]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    cfg_path = tmp_path / "resolved.json"
    cfg_path.write_text(json.dumps(manifest["resolved_config"]))
    out2 = tmp_path / "run2"
    assert cli_main(["--config", str(cfg_path), "--out", str(out2), "--quiet"]) == 0
    mismatched = [
        name
        for name in manifest["outputs"]
        if name != "manifest.json"
        and (out1 / name).read_bytes() != (out2 / name).read_bytes()
    ]
    _verdict(
        "criterion 9 (determinism)",
        mismatched == [],
        f"{len(manifest['outputs']) - 1} data files byte-identical"
        if not mismatched
        else f"mismatched files: {mismatched}",
    )
