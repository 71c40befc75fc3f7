import math
from dataclasses import replace

import numpy as np
import pytest

from lgsqueeze import scenarios
from lgsqueeze.modes import ModeIndex, QuadratureError
from lgsqueeze.report_io import report_from_dict, report_to_dict, scenario_config_from_dict
from lgsqueeze.scenarios import default_config, run_scenario, scan_island
from lgsqueeze.squeeze_core import state_report


def small_scan():
    cfg = default_config("WaistScan", ell_max=0, p_max=1)
    return replace(cfg, scan_grid={"pump": [100.0, 200.0], "collection": [100.0, 200.0],
                                   "points": 2})


def mode_pos(result, ell, p):
    return result.squeeze.basis.position(ModeIndex(ell, p))


def recorded_assemblies(monkeypatch):
    """Every coupling the scenarios assemble, in call order."""
    assemble = scenarios.assemble_squeeze_matrix
    couplings = []

    def recording(coupling):
        couplings.append(coupling)
        return assemble(coupling)

    monkeypatch.setattr(scenarios, "assemble_squeeze_matrix", recording)
    return couplings


class TestPsrSinglePhoton:
    def test_photon_target_enforced(self, psr_results):
        assert abs(psr_results["PsrSinglePhoton"].report.nbar_total - 1.0) < 1e-9

    def test_covariance_free(self, psr_results):
        rep = psr_results["PsrSinglePhoton"].report
        off = rep.var_X1 - np.diag(np.diag(rep.var_X1))
        assert np.abs(off).max() == 0.0
        assert np.abs(rep.cross_cov).max() < 1e-12

    def test_no_response_outside_ell_zero(self, psr_results):
        res = psr_results["PsrSinglePhoton"]
        nbar = res.report.nbar_matrix
        for i, idx in enumerate(res.squeeze.basis.order):
            if idx.ell != 0:
                assert np.abs(nbar[i, :]).max() == 0.0
                assert np.abs(nbar[:, i]).max() == 0.0

    def test_squeezing_concentrated_in_fundamental(self, psr_results):
        res = psr_results["PsrSinglePhoton"]
        rep = res.report
        i00 = mode_pos(res, 0, 0)
        v1 = rep.var_X1.diagonal().real
        v2 = rep.var_X2.diagonal().real
        best = np.minimum(v1, v2)
        assert best.argmin() == i00
        # higher-order p modes keep a slight amount of squeezing
        for p in (1, 2):
            assert best[mode_pos(res, 0, p)] < 0.25 - 1e-4

    def test_convergence_summary_reported(self, psr_results):
        conv = psr_results["PsrSinglePhoton"].convergence
        assert conv is not None and conv["basis"] == "ell_max=2,p_max=4"


class TestPsrPCrosstalk:
    def test_photon_number_grows_to_expected(self, psr_results):
        nbar = psr_results["PsrPCrosstalk"].report.nbar_total
        assert abs(nbar - 1.14) / 1.14 < 0.15

    def test_covariance_appears_within_ell_zero(self, psr_results):
        res = psr_results["PsrPCrosstalk"]
        v1 = res.report.var_X1
        i00, i01 = mode_pos(res, 0, 0), mode_pos(res, 0, 1)
        assert abs(v1[i00, i01]) > 1e-4

    def test_fundamental_noise_increase_small(self, psr_results):
        m = psr_results["PsrPCrosstalk"].metrics
        # mode-resolved noise strictly increases but stays modest; the
        # beam-integrated squeezed-quadrature noise grows by a few percent
        assert 1.0 < m["u00_noise_ratio"] < 1.25
        assert abs(m["scalar_noise_ratio"] - 1.03) / 1.03 < 0.15


class TestFwmTwoPhoton:
    def test_photon_number(self, psr_results):
        nbar = psr_results["FwmTwoPhoton"].report.nbar_total
        assert abs(nbar - 1.25) / 1.25 < 0.15

    def test_strict_ordering_of_photon_numbers(self, psr_results):
        n0 = psr_results["PsrSinglePhoton"].report.nbar_total
        n1 = psr_results["PsrPCrosstalk"].report.nbar_total
        n2 = psr_results["FwmTwoPhoton"].report.nbar_total
        assert n0 < n1 < n2

    def test_opposite_oam_pairs_populated(self, psr_results):
        res = psr_results["FwmTwoPhoton"]
        pair = np.abs(res.report.pair_matrix)
        assert pair[mode_pos(res, 1, 0), mode_pos(res, -1, 0)] > 1e-3
        # support respects OAM conservation (zeros up to factorization noise)
        floor = 1e-14 * pair.max()
        for i, sig in enumerate(res.squeeze.basis.order):
            for j, idl in enumerate(res.squeeze.basis.order):
                if sig.ell + idl.ell != 0:
                    assert pair[i, j] < floor

    def test_no_further_fundamental_noise_increase(self, psr_results):
        u_fwm = psr_results["FwmTwoPhoton"].metrics["u00_variance_x1"]
        u_pcross = psr_results["PsrPCrosstalk"].metrics["u00_variance_x1"]
        assert u_fwm == pytest.approx(u_pcross, rel=1e-9)

    def test_covariance_sign_structure(self, psr_results):
        res = psr_results["FwmTwoPhoton"]
        i00, i01 = mode_pos(res, 0, 0), mode_pos(res, 0, 1)
        # cooperative fluctuations in the noisy quadrature, opposing in the
        # squeezed quadrature
        assert res.report.var_X2[i00, i01].real > 0
        assert res.report.var_X1[i00, i01].real < 0


class TestPdcBenchmark:
    def test_headline_variances(self, pdc_benchmark):
        m = pdc_benchmark.metrics
        assert abs(m["u00_variance_normalized"] - 0.32) / 0.32 < 0.15
        assert abs(m["lambda1_variance_normalized"] - 0.28) / 0.28 < 0.15

    def test_eigenmode_beats_fundamental(self, pdc_benchmark):
        m = pdc_benchmark.metrics
        assert m["lambda1_variance_normalized"] < m["u00_variance_normalized"]
        assert m["eigen_improvement_db"] >= 0.3

    def test_eigen_photon_sum(self, pdc_benchmark):
        rows = pdc_benchmark.eigen_rows
        assert sum(r.nbar for r in rows) == pytest.approx(1.0, abs=1e-9)

    def test_fundamental_bounded_by_top_eigenmode(self, pdc_benchmark):
        m = pdc_benchmark.metrics
        lam1 = m["lambda_1"]
        assert m["u00_variance_x1"] > 0.25 * math.exp(-2 * lam1)

    def test_matrix_is_normal_with_centred_foci(self, pdc_benchmark):
        assert pdc_benchmark.eigen.normality_residual < 1e-8


class TestPdcEigenPump:
    def test_top_eigenvalue_grows(self, pdc_benchmark, pdc_eigen_pump):
        assert pdc_eigen_pump.metrics["lambda_1"] > pdc_benchmark.metrics["lambda_1"]

    def test_improved_noise_suppression(self, pdc_eigen_pump):
        m = pdc_eigen_pump.metrics
        assert abs(m["lambda1_variance_normalized"] - 0.23) / 0.23 < 0.15
        assert m["improvement_vs_benchmark_u00_db"] >= 0.8

    def test_photon_share_concentrates(self, pdc_eigen_pump):
        m = pdc_eigen_pump.metrics
        assert m["nbar_lambda1_share"] > m["benchmark_nbar_lambda1_share"]

    def test_covariance_becomes_more_uniform(self, pdc_benchmark, pdc_eigen_pump):
        def offdiag_spread(res):
            v1 = np.abs(res.report.var_X1)
            off = v1[~np.eye(v1.shape[0], dtype=bool)]
            return np.var(off)

        assert offdiag_spread(pdc_eigen_pump) < offdiag_spread(pdc_benchmark)

    def test_squeezed_modes_stay_squeezed(self, pdc_benchmark, pdc_eigen_pump):
        # eigenmode pumping reshapes the coupling without destroying the
        # noise suppression of any individual mode: every mode squeezed at
        # the benchmark remains squeezed, and per-mode changes stay small
        def best_per_mode(res):
            return np.minimum(
                res.report.var_X1.diagonal().real, res.report.var_X2.diagonal().real
            )

        before = best_per_mode(pdc_benchmark)
        after = best_per_mode(pdc_eigen_pump)
        squeezed = before < 0.25
        assert np.all(after[squeezed] < 0.25)
        shift_db = np.abs(10 * np.log10(after[squeezed] / before[squeezed]))
        assert shift_db.max() < 1.0


class TestPdcHeralding:
    def test_diagonal_dominance_improves(self, pdc_heralding):
        m = pdc_heralding.metrics
        assert m["diag_dominance"] > m["benchmark_diag_dominance"]

    def test_fundamental_share_drops(self, pdc_heralding):
        m = pdc_heralding.metrics
        assert m["n00_share"] < m["benchmark_n00_share"]

    def test_occupation_extends_beyond_p2(self, pdc_heralding):
        assert pdc_heralding.metrics["occupation_beyond_p2"] > 0.01

    def test_extended_basis_in_use(self, pdc_heralding):
        assert pdc_heralding.squeeze.basis.p_max == 20

    def test_seeded_reference_holds_the_run_photon_number(self, monkeypatch):
        cfg = default_config("PdcHeralding", ell_max=0, p_max=2)
        gain = run_scenario(cfg).gain
        scale, references = scenarios.scale_to_mean_photons, []

        def recording(sq, n_target):
            scaled, s = scale(sq, n_target)
            references.append(scaled)
            return scaled, s

        # a seeded run calibrates nothing but its reference
        monkeypatch.setattr(scenarios, "scale_to_mean_photons", recording)
        dominance = []
        for factor in (0.5, 1.5):
            result = run_scenario(replace(cfg, seed_gain=factor * gain))
            (reference,) = references
            references.clear()
            assert state_report(reference).nbar_total == pytest.approx(
                result.report.nbar_total, rel=1e-10, abs=0)
            dominance.append(result.metrics["benchmark_diag_dominance"])
        assert dominance[0] != dominance[1]


class TestWaistScan:
    def test_metric_bounded(self, waist_scan):
        metric = np.asarray(waist_scan.scan["metric"], dtype=float)
        assert np.nanmin(metric) >= 0.0
        assert np.nanmax(metric) <= 1.0

    def test_no_cell_failures(self, waist_scan):
        assert waist_scan.scan["failures"] == []

    def test_numerical_failure_is_recorded_per_cell(self, monkeypatch):
        assemble = scenarios.assemble_squeeze_matrix

        def failing_corner(coupling):
            if coupling.pump1.geometry.waist_w0 == coupling.collection.waist_w0 == 100.0:
                raise QuadratureError("no convergence", 1.0)
            return assemble(coupling)

        monkeypatch.setattr(scenarios, "assemble_squeeze_matrix", failing_corner)
        scan = run_scenario(small_scan()).scan
        assert [(f["pump"], f["collection"]) for f in scan["failures"]] == [(100.0, 100.0)]
        assert math.isnan(scan["metric"][0][0])

    def test_programming_error_is_not_a_failed_cell(self, monkeypatch):
        def broken(sq):
            raise TypeError("not a numerical failure")

        monkeypatch.setattr(scenarios, "pair_dominance_metrics", broken)
        with pytest.raises(TypeError):
            run_scenario(small_scan())

    def test_argmax_in_island_containing_benchmark(self, waist_scan):
        island = waist_scan.scan["island"]
        assert island["argmax_in_island"]

    def test_far_corner_below_island(self, waist_scan):
        scan = waist_scan.scan
        metric = np.asarray(scan["metric"], dtype=float)
        # smallest pump waist, largest collection waist
        assert metric[0, -1] < scan["island"]["threshold"]

    def test_island_helper_rejects_detached_argmax(self):
        scan = {
            "pump_waists": [50.0, 100.0, 200.0, 400.0],
            "collection_waists": [50.0, 100.0, 200.0, 400.0],
            "metric": [
                [0.9, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.1, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ],
        }
        island = scan_island(scan)
        assert not island["argmax_in_island"]


class TestSerialization:
    def test_report_round_trip_exact(self, psr_results, pdc_benchmark):
        for res in (*psr_results.values(), pdc_benchmark):
            data = report_to_dict(res.report)
            back = report_from_dict(data)
            assert np.array_equal(back.var_X1, np.asarray(res.report.var_X1))
            assert np.array_equal(back.pair_matrix, np.asarray(res.report.pair_matrix))
            assert back.scalar_var == tuple(map(float, res.report.scalar_var))
            assert back.nbar_total == res.report.nbar_total
            assert back.mode_labels == res.report.mode_labels


class TestConfigValidation:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            default_config("NoSuchScenario")

    def test_bad_target_rejected(self):
        cfg = default_config("PdcBenchmark")
        with pytest.raises(ValueError):
            run_scenario(type(cfg)(name=cfg.name, coupling=cfg.coupling, n_target=-1.0))

    @pytest.mark.parametrize("name", scenarios.SCENARIO_NAMES)
    def test_convergence_check_only_where_a_rerun_exists(self, name):
        reruns = name in ("PsrSinglePhoton", "PsrPCrosstalk", "FwmTwoPhoton", "PdcBenchmark")
        cfg = default_config(name)
        assert cfg.convergence_check is reruns
        checked = {"coupling": cfg.coupling, "scan_grid": cfg.scan_grid,
                   "convergence_check": True}
        if reruns:
            assert type(cfg)(name, **checked).convergence_check
        else:
            with pytest.raises(ValueError, match="convergence_check"):
                type(cfg)(name, **checked)

    @pytest.mark.parametrize("field, value", [
        ("n_target", math.nan), ("n_target", math.inf), ("n_target", 0.0),
        ("seed_gain", math.nan), ("seed_gain", -math.inf),
    ])
    def test_non_finite_target_or_gain_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            replace(default_config("PdcBenchmark"), **{field: value})

    def test_waist_scan_refuses_a_seed_gain(self):
        # WaistScan calibrates every cell, so a seed gain would be ignored
        with pytest.raises(ValueError, match="seed_gain"):
            replace(small_scan(), seed_gain=0.5)

    @pytest.mark.parametrize("grid", [
        {"pump": [200.0, 100.0], "collection": [100.0, 200.0], "points": 2},
        {"pump": [100.0, 200.0], "collection": [0.0, 200.0], "points": 2},
        {"pump": [100.0, 200.0], "collection": [100.0, math.inf], "points": 2},
        {"pump": [100.0, 200.0], "collection": [100.0, 200.0], "points": 1},
    ])
    def test_bad_scan_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="scan_grid"):
            replace(small_scan(), scan_grid=grid)

    def test_scan_grid_only_for_waist_scan(self):
        grid = small_scan().scan_grid
        with pytest.raises(ValueError, match="scan_grid"):
            replace(default_config("PdcBenchmark"), scan_grid=grid)
        with pytest.raises(ValueError, match="scan_grid"):
            replace(small_scan(), scan_grid=None)

    def test_config_is_frozen(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            default_config("PdcBenchmark").n_target = 2.0

class TestPipeline:
    def test_psr_crosstalk_assembles_each_matrix_once(self, monkeypatch):
        couplings = recorded_assemblies(monkeypatch)
        run_scenario(default_config("PsrPCrosstalk"))
        # baseline and crosstalk, at the stock and at the convergence basis
        kinds = {(c.interaction, c.basis.ell_max, c.basis.p_max) for c in couplings}
        assert len(couplings) == len(kinds) == 4

    def test_waist_scan_reports_its_best_cell_without_rebuilding_it(self, monkeypatch):
        couplings = recorded_assemblies(monkeypatch)
        run_scenario(small_scan())
        assert len(couplings) == 4

    @pytest.mark.parametrize("scenario, extra, changed, keys, same", [
        # the frozen gain comes from the run's own baseline, so the strength cancels
        ("PsrPCrosstalk", {}, {"medium": {"strength": 2}},
         ("nbar_total", "u00_noise_ratio", "scalar_noise_ratio"), True),
        ("PdcEigenPump", {"basis": {"ell_max": 0, "p_max": 2}},
         {"pump": {"wavelength": 0.5}}, ("lambda_1", "benchmark_lambda_1"), False),
        ("PdcHeralding", {"basis": {"ell_max": 0, "p_max": 2}},
         {"pump": {"wavelength": 0.5}},
         ("benchmark_diag_dominance", "benchmark_n00_share"), False),
        ("WaistScan",
         {"basis": {"ell_max": 0, "p_max": 1},
          "grid": {"pump": [100.0, 200.0], "collection": [100.0, 200.0], "points": 2}},
         {"pump": {"wavelength": 0.5}}, ("island_threshold",), False),
    ])
    def test_derived_runs_inherit_the_config(self, scenario, extra, changed, keys, same):
        def figures(coupling):
            cfg = scenario_config_from_dict({"scenario": scenario, "coupling": coupling,
                                             "convergence_check": False, **extra})
            metrics = run_scenario(cfg).metrics
            return [metrics[key] for key in keys]

        stock, varied = figures({}), figures(changed)
        for key, a, b in zip(keys, stock, varied):
            assert (b == pytest.approx(a, rel=1e-12, abs=0)) is same, (key, a, b)
