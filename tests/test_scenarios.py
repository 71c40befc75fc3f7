import json
import math
from dataclasses import fields, replace
from operator import attrgetter

import numpy as np
import pytest

from lgsqueeze import scenarios
from lgsqueeze.coupling import (ASSEMBLY_BYTES_LIMIT, InteractionType, PumpSpec,
                                _assemble_at, assemble_squeeze_matrix)
from lgsqueeze.modes import FieldError, ModeIndex
from lgsqueeze.report_io import (emit_result, load_report, report_from_dict, report_to_dict,
                                 resolved_config_dict, scenario_config_from_dict)
from lgsqueeze.scenarios import default_config, run_scenario, scan_island
from lgsqueeze.squeeze_core import StateReport, state_report


def small_scan():
    cfg = default_config("WaistScan", ell_max=0, p_max=1)
    return replace(cfg, scan_grid={"pump": [100.0, 200.0], "collection": [100.0, 200.0],
                                   "points": 2})


def with_field(cfg, field, value):
    """``cfg`` with ``value`` at the attribute path ``field``, each owner rebuilt;
    a ``basis.`` bound goes through ``scenario_basis``, as a config file's does."""
    if field.startswith("basis."):
        basis = cfg.coupling.basis
        bounds = {"ell_max": basis.ell_max, "p_max": basis.p_max, field[len("basis."):]: value}
        basis = scenarios.scenario_basis(cfg.name, **bounds)
        return replace(cfg, coupling=scenarios.coupling_on_basis(cfg.coupling, basis))
    head, *rest = field.split(".")
    if rest:
        value = with_field(getattr(cfg, head), ".".join(rest), value)
    return replace(cfg, **{head: value})


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

    @staticmethod
    def fail_at(monkeypatch, pump, collection):
        """Make the cell of the ``pump`` and ``collection`` waists fail."""
        assemble = scenarios.assemble_squeeze_matrix

        def failing_cell(coupling):
            waists = (coupling.pump1.geometry.waist_w0, coupling.collection.waist_w0)
            if waists == (pump, collection):
                raise FieldError("coupling.pump", "a waist the quadrature cannot resolve")
            return assemble(coupling)

        monkeypatch.setattr(scenarios, "assemble_squeeze_matrix", failing_cell)

    def test_numerical_failure_is_recorded_per_cell(self, monkeypatch):
        self.fail_at(monkeypatch, 100.0, 100.0)
        scan = run_scenario(small_scan()).scan
        assert [(f["pump"], f["collection"]) for f in scan["failures"]] == [(100.0, 100.0)]
        assert math.isnan(scan["metric"][0][0])

    def test_failed_anchor_gives_way_to_the_finite_ones(self, monkeypatch):
        # 200 um lies as far from 100 as from 400 in log space, so all four
        # cells are anchors; the failed first one must not set the threshold
        self.fail_at(monkeypatch, 100.0, 100.0)
        grid = {"pump": [100.0, 400.0], "collection": [100.0, 400.0], "points": 2}
        scan = run_scenario(replace(small_scan(), scan_grid=grid)).scan
        metric = np.asarray(scan["metric"], dtype=float)
        assert math.isnan(metric[0, 0])
        assert scan["island"]["threshold"] == np.nanmax(metric)
        assert scan["island"]["anchor_cell"] != [0, 0]

    def test_failed_only_anchor_names_grid(self, monkeypatch):
        self.fail_at(monkeypatch, 200.0, 200.0)
        with pytest.raises(FieldError, match="quadrature cannot resolve") as caught:
            run_scenario(small_scan())
        assert caught.value.field == "grid"

    def test_programming_error_is_not_a_failed_cell(self, monkeypatch):
        def broken(report, basis):
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
    def test_report_round_trip_exact(self, psr_results, pdc_benchmark, tmp_path):
        for res in (*psr_results.values(), pdc_benchmark):
            out = tmp_path / res.name
            emit_result(res, default_config(res.name), out)
            for back in (report_from_dict(report_to_dict(res.report)), load_report(out)):
                for field in fields(StateReport):
                    want, got = getattr(res.report, field.name), getattr(back, field.name)
                    assert type(got) is type(want) or isinstance(want, float), field.name
                    assert np.array_equal(got, want), (res.name, field.name)


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

    @pytest.mark.parametrize("field, value, accepted", [
        ("convergence_check", 1, False), ("convergence_check", "yes", False),
        ("convergence_check", np.True_, True),
        ("n_target", True, False), ("n_target", "2", False), ("n_target", 2 + 0j, False),
        ("n_target", 10 ** 400, False), ("n_target", 2, True), ("n_target", np.float64(2), True),
        ("seed_gain", True, False), ("seed_gain", "0.1", False), ("seed_gain", [0.1], False),
        ("seed_gain", np.float32(0.5), True),
        # nested fields, each refused by the object that holds it
        ("coupling.cell_length", True, False), ("coupling.collection.waist_w0", True, False),
        ("coupling.single_pump", 1, False), ("coupling.interaction", "FullCrosstalk", False),
        ("coupling.pump1.coefficients", ["a"], False), ("basis.ell_max", 1.5, False),
        ("coupling.single_pump", np.True_, True), ("coupling.collection.waist_w0", 80, True),
        ("coupling.pump1.geometry.waist_w0", 200, True), ("basis.p_max", np.int64(1), True),
    ])
    def test_accepts_only_values_its_manifest_reads_back(self, field, value, accepted):
        # a run's resolved_config must re-read as a config file to the same config
        cfg = default_config("PsrSinglePhoton")
        if not accepted:
            with pytest.raises(FieldError) as err:
                with_field(cfg, field, value)
            assert err.value.field.split(".")[-1] == field.split(".")[-1]
            return
        written = json.loads(json.dumps(resolved_config_dict(with_field(cfg, field, value))))
        attribute = "coupling." + field if field.startswith("basis.") else field
        assert attrgetter(attribute)(scenario_config_from_dict(written)) == value

    def test_waist_scan_refuses_a_seed_gain(self):
        # WaistScan calibrates every cell, so a seed gain would be ignored
        with pytest.raises(ValueError, match="seed_gain"):
            replace(small_scan(), seed_gain=0.5)

    @pytest.mark.parametrize("n_target", [5.0, 0.5])
    def test_seed_gain_refuses_an_n_target(self, n_target):
        # a seed gain sets the scale, so a calibration target would be ignored
        with pytest.raises(FieldError) as err:
            replace(default_config("PsrSinglePhoton"), n_target=n_target, seed_gain=1e-4)
        assert err.value.field == "n_target"
        assert replace(default_config("PsrSinglePhoton"), seed_gain=1e-4).n_target == 1.0

    @pytest.mark.parametrize("grid", [
        {"pump": [200.0, 100.0], "collection": [100.0, 200.0], "points": 2},
        {"pump": [100.0, 200.0], "collection": [0.0, 200.0], "points": 2},
        {"pump": [100.0, 200.0], "collection": [100.0, math.inf], "points": 2},
        {"pump": [100.0, 200.0], "collection": [100.0, 200.0], "points": 1},
        # an axis that is not a pair
        {"pump": [100.0, 150.0, 200.0], "collection": [100.0, 200.0], "points": 2},
        {"pump": [100.0, 200.0], "collection": 150.0, "points": 2},
        {"pump": ["a", "b"], "collection": [100.0, 200.0], "points": 2},
        # an end waist the beam refuses, whose cells would each fail
        {"pump": [1e-300, 200.0], "collection": [100.0, 200.0], "points": 2},
        {"pump": [100.0, 200.0], "collection": [1e-300, 1e-299], "points": 2},
    ])
    def test_bad_scan_grid_rejected(self, grid):
        with pytest.raises(FieldError) as err:
            replace(small_scan(), scan_grid=grid)
        assert err.value.field.startswith("scan_grid."), err.value.field

    @pytest.mark.parametrize("name", ["PsrPCrosstalk", "PsrSinglePhoton"])
    def test_drives_that_feed_no_block_rejected(self, name):
        # a same-ell interaction pairs signal and idler of one ell, so drives
        # on ell = +1 and ell = 0 (net OAM 1) leave xi exactly zero
        cfg = default_config(name, ell_max=1, p_max=0)
        coupling, basis = cfg.coupling, cfg.coupling.basis

        def drives(ell1, ell2):
            on = [np.eye(basis.size)[basis.position(ModeIndex(ell, 0))] for ell in (ell1, ell2)]
            return replace(coupling, pump1=PumpSpec(coupling.pump1.geometry, on[0]),
                           pump2=PumpSpec(coupling.pump1.geometry, on[1]))

        odd = drives(1, 0)
        assert not assemble_squeeze_matrix(odd).xi.any()
        with pytest.raises(FieldError) as err:
            replace(cfg, coupling=odd)
        assert err.value.field == "coupling.pump.coefficients"
        # an even net OAM feeds the ell = 0 block, and full cross talk any pair;
        # but PsrPCrosstalk also calibrates on a degenerate copy, which stays zero
        assert assemble_squeeze_matrix(replace(cfg, coupling=drives(1, -1)).coupling).xi.any()
        full = replace(odd, interaction=InteractionType.FULL_CROSSTALK)
        if name == "PsrPCrosstalk":
            with pytest.raises(FieldError) as err:
                replace(cfg, coupling=full)
            assert err.value.field == "coupling.pump.coefficients"
            assert "the baseline PsrPCrosstalk calibrates on" in err.value.reason
        else:
            replace(cfg, coupling=full)

    @pytest.mark.parametrize("name", ["PsrSinglePhoton", "PsrPCrosstalk", "FwmTwoPhoton"])
    def test_refused_exactly_when_an_analysed_xi_is_zero(self, name):
        """Seeded draws of drive supports at bases up to (2, 0): the config is
        refused exactly when a coupling the run analyses (its own, and for the
        crosstalk runs the degenerate baseline) assembles to an all-zero xi."""
        rng = np.random.default_rng(2003)
        outcomes = set()
        for _ in range(40):
            cfg = default_config(name, ell_max=int(rng.integers(0, 3)), p_max=0)
            coupling, size = cfg.coupling, cfg.coupling.basis.size

            def drive():
                support = rng.choice(size, size=int(rng.integers(1, size + 1)), replace=False)
                coeff = np.zeros(size, dtype=complex)
                coeff[support] = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
                return PumpSpec(coupling.pump1.geometry, coeff / np.linalg.norm(coeff))

            drawn = replace(coupling, pump1=drive(), pump2=drive() if rng.random() < 0.8 else None)
            analysed = [drawn]
            if name != "PsrSinglePhoton":
                analysed.append(replace(drawn, interaction=InteractionType.DEGENERATE_SINGLE_BEAM))
            zero = any(not _assemble_at(c, 8, 12, 40.0).any() for c in analysed)
            try:
                replace(cfg, coupling=drawn)
                refused = False
            except FieldError as err:
                assert err.field == "coupling.pump.coefficients"
                refused = True
            assert refused == zero, (drawn.pump1.coefficients, drawn.pump2)
            outcomes.add(refused)
        assert outcomes == {False, True}

    @pytest.mark.parametrize("grid, field", [
        ({"points": 4}, "scan_grid.pump"),
        ({"pump": [50.0, 800.0], "points": 4}, "scan_grid.collection"),
        ({"pump": [50.0, 800.0], "collection": [50.0, 800.0]}, "scan_grid.points"),
        ({"pump": [50.0, 800.0], "collection": [50.0, 800.0], "points": 4.5},
         "scan_grid.points"),
        ({"pump": [50.0, 800.0], "collection": [50.0, 800.0], "points": 4, "extra": 1},
         "scan_grid.extra"),
    ], ids=["missing-pump", "missing-collection", "missing-points", "fractional-points",
            "unknown-key"])
    def test_scan_grid_keys_checked_in_python(self, grid, field):
        # the config reader's table refuses these too; a Python grid is checked alike
        with pytest.raises(FieldError) as err:
            replace(default_config("WaistScan"), scan_grid=grid)
        assert err.value.field == field

    def test_scan_grid_points_bounded_by_the_assembly_limit(self):
        # the float64 metric grid of the largest scan fits ASSEMBLY_BYTES_LIMIT
        largest = math.isqrt(ASSEMBLY_BYTES_LIMIT // 8)
        grid = dict(small_scan().scan_grid, points=largest)
        assert replace(small_scan(), scan_grid=grid).scan_grid["points"] == largest
        with pytest.raises(FieldError) as err:
            replace(small_scan(), scan_grid=dict(grid, points=largest + 1))
        assert err.value.field == "scan_grid.points"

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

    # each key is a figure of the derived run, which moves only if that run
    # inherits the changed config field
    @pytest.mark.parametrize("scenario, extra, changed, keys", [
        ("PsrPCrosstalk", {}, {"pump": {"wavelength": 0.5}},
         ("frozen_gain", "baseline_u00_variance_x1")),
        ("PdcEigenPump", {"basis": {"ell_max": 0, "p_max": 2}},
         {"pump": {"wavelength": 0.5}}, ("lambda_1", "benchmark_lambda_1")),
        ("PdcHeralding", {"basis": {"ell_max": 0, "p_max": 2}},
         {"pump": {"wavelength": 0.5}},
         ("benchmark_diag_dominance", "benchmark_n00_share")),
        ("WaistScan",
         {"basis": {"ell_max": 0, "p_max": 1},
          "grid": {"pump": [100.0, 200.0], "collection": [100.0, 200.0], "points": 2}},
         {"pump": {"wavelength": 0.5}}, ("island_threshold",)),
    ])
    def test_derived_runs_inherit_the_config(self, scenario, extra, changed, keys):
        def figures(coupling):
            cfg = scenario_config_from_dict({"scenario": scenario, "coupling": coupling,
                                             "convergence_check": False, **extra})
            metrics = run_scenario(cfg).metrics
            return [metrics[key] for key in keys]

        stock, varied = figures({}), figures(changed)
        for key, a, b in zip(keys, stock, varied):
            assert b != pytest.approx(a, rel=1e-12, abs=0), (key, a, b)
