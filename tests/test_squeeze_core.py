import math

import numpy as np
import pytest
import scipy.linalg

from conftest import random_normal_symmetric, random_symmetric
from lgsqueeze.coupling import InteractionType, assemble_squeeze_matrix, scale_to_mean_photons
from lgsqueeze.modes import build_basis
from lgsqueeze.scenarios import default_config
from lgsqueeze import squeeze_core
from lgsqueeze.squeeze_core import (
    SqueezeMatrix,
    bogoliubov_matrix,
    bogoliubov_metric,
    degenerate_statistics,
    polar_decompose,
    state_report,
)

TWO_BEAM = InteractionType.FULL_CROSSTALK


def two_beam(xi):
    return SqueezeMatrix(xi=np.asarray(xi, dtype=complex), basis=None,
                         interaction=TWO_BEAM)


class TestPolar:
    def test_already_positive_diagonal(self):
        r, phase = polar_decompose(np.diag([0.5, 0.2]))
        assert np.allclose(r, np.diag([0.5, 0.2]), atol=1e-14)
        assert np.allclose(phase, np.eye(2), atol=1e-14)

    def test_scalar_phase(self):
        r, phase = polar_decompose(np.array([[0.7 * np.exp(1j * np.pi / 3)]]))
        assert r[0, 0].real == pytest.approx(0.7, abs=1e-14)
        assert phase[0, 0] == pytest.approx(np.exp(1j * np.pi / 3), abs=1e-14)

    def test_offdiagonal_magnitude_factor(self):
        xi = np.array([[0.0, 0.3], [0.3, 0.0]])
        r, phase = polar_decompose(xi)
        # independent oracle: R must be the PSD square root of xi xi^dag
        oracle = scipy.linalg.sqrtm(xi @ xi.conj().T)
        assert np.allclose(r, oracle, atol=1e-12)
        assert np.allclose(r, 0.3 * np.eye(2), atol=1e-12)
        assert np.allclose(r @ phase, xi, atol=1e-13)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(5)
        for n in (1, 3, 8):
            xi = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            r, phase = polar_decompose(xi)
            scale = np.linalg.norm(xi)
            assert np.linalg.norm(r @ phase - xi) / scale < 1e-12
            assert np.allclose(r, r.conj().T, atol=1e-12)
            assert np.all(np.linalg.eigvalsh(r) > -1e-12)
            assert np.allclose(phase @ phase.conj().T, np.eye(n), atol=1e-12)
            assert np.allclose(phase.conj().T @ phase, np.eye(n), atol=1e-12)

    def test_rank_deficient_is_deterministic(self):
        xi = np.zeros((3, 3), dtype=complex)
        xi[0, 1] = 0.4
        r1, phase1 = polar_decompose(xi)
        r2, phase2 = polar_decompose(xi.copy())
        assert np.array_equal(phase1, phase2)
        assert np.allclose(r1 @ phase1, xi, atol=1e-14)
        assert np.allclose(phase1 @ phase1.conj().T, np.eye(3), atol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            polar_decompose(np.array([[np.nan]]))


def full_sweep_completion(cols, n):
    """The Gram-Schmidt completion that sweeps every candidate e_1, e_2, ...;
    returns the basis and the remainder norm of each candidate."""
    have = [cols[:, k] for k in range(cols.shape[1])]
    norms = []
    k = 0
    while len(have) < n:
        v = np.zeros(n, dtype=complex)
        v[k] = 1.0
        for u in have:
            v -= u * np.vdot(u, v)
        norms.append(np.linalg.norm(v))
        if norms[-1] > 1e-6:
            have.append(v / norms[-1])
        k += 1
    return np.column_stack(have), norms


def sector_matrix(rng, sizes, scales):
    """Block-diagonal xi on randomly interleaved indices: one random symmetric
    block per sector, at that sector's scale."""
    n = sum(sizes)
    order = rng.permutation(n)
    xi = np.zeros((n, n), dtype=complex)
    start = 0
    for size, scale in zip(sizes, scales):
        idx = order[start:start + size]
        a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        xi[np.ix_(idx, idx)] = scale * (a + a.T)
        start += size
    return xi


def low_rank_matrix(rng, n, rank):
    a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for shape in ((n, rank), (rank, n)))
    return a @ b


class TestCompletionSkip:
    """The completion skips candidates its estimate proves rejected and keeps
    every bit of the full sweep.

    In the sector matrices the global cutoff n eps sigma_max drops one sector
    whole and another in part, as at 441 modes, so most candidates lie in
    kept sectors and some swept norms fall near the 1e-6 acceptance norm.
    """

    @staticmethod
    def completions(monkeypatch, xi):
        """(basis, estimates) and the full sweep's (basis, norms) for each
        completion ``polar_decompose(xi)`` makes."""
        real = squeeze_core._complete_orthonormal
        seen = []

        def spy(cols, n):
            got = real(cols, n)
            seen.append((got, full_sweep_completion(cols, n)))
            return got

        monkeypatch.setattr(squeeze_core, "_complete_orthonormal", spy)
        polar_decompose(xi)
        assert len(seen) == 2  # W and V are both completed
        return seen

    @pytest.mark.parametrize("seed", range(4))
    def test_low_rank_completion_equals_the_full_sweep(self, monkeypatch, seed):
        xi = low_rank_matrix(np.random.default_rng(seed), 40, 28)
        for (basis, estimates), (want, norms) in self.completions(monkeypatch, xi):
            assert np.array_equal(basis.view(np.uint64), want.view(np.uint64))
            assert len(estimates) == len(norms)
            assert np.max(np.abs(np.subtract(estimates, norms))) <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_sector_completion_equals_the_full_sweep_and_skips_most(self, monkeypatch, seed):
        xi = sector_matrix(np.random.default_rng(seed), [10] * 6,
                           [1.0, 1e-3, 1e-14, 1.0, 1e-13, 1e-6])
        for (basis, estimates), (want, norms) in self.completions(monkeypatch, xi):
            assert np.array_equal(basis.view(np.uint64), want.view(np.uint64))
            assert len(estimates) == len(norms)
            assert np.max(np.abs(np.subtract(estimates, norms))) <= 1e-12
            swept = sum(e >= squeeze_core._COMPLETION_SKIP_NORM for e in estimates)
            assert swept < len(estimates) / 2


class TestScalarVariance:
    def test_vacuum(self):
        sq = two_beam(np.zeros((9, 9)))
        assert state_report(sq).scalar_var == pytest.approx((2.25, 2.25))

    def test_single_mode(self):
        r = 0.43
        v1, v2 = state_report(two_beam([[r]])).scalar_var
        assert v1 == pytest.approx(0.25 * math.exp(-2 * r), rel=1e-12)
        assert v2 == pytest.approx(0.25 * math.exp(2 * r), rel=1e-12)

    def test_one_photon_squeezing_level(self):
        r = math.asinh(1.0)
        v1, _ = state_report(two_beam([[r]])).scalar_var
        assert v1 == pytest.approx(0.042893218813452476, rel=1e-12)
        assert 10 * math.log10(v1 / 0.25) == pytest.approx(-7.66, abs=0.01)


class TestVarianceMatrices:
    def test_vacuum(self):
        report = state_report(two_beam(np.zeros((4, 4))))
        v1, v2 = report.var_X1, report.var_X2
        assert np.allclose(v1, np.eye(4) / 4, atol=1e-15)
        assert np.allclose(v2, np.eye(4) / 4, atol=1e-15)

    def test_real_symmetric_special_case(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(6, 6))
        xi = 0.2 * (a + a.T)
        report = state_report(two_beam(xi))
        v1, v2 = report.var_X1, report.var_X2
        assert np.allclose(v1 @ v2, np.eye(6) / 16.0, atol=1e-10)
        assert np.abs(report.cross_cov).max() < 1e-10

    def test_real_psd_special_case(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 5))
        xi = 0.1 * (a @ a.T)  # real symmetric positive semidefinite
        report = state_report(two_beam(xi))
        v1, v2 = report.var_X1, report.var_X2
        assert np.allclose(v1, 0.25 * scipy.linalg.expm(-2 * xi), atol=1e-10)
        assert np.allclose(v2, 0.25 * scipy.linalg.expm(2 * xi), atol=1e-10)

    def test_trace_identity(self):
        rng = np.random.default_rng(3)
        for n in (2, 7, 25):
            report = state_report(two_beam(random_symmetric(rng, n, scale=0.8)))
            v1, v2 = report.var_X1, report.var_X2
            s1, s2 = report.scalar_var
            assert abs(np.trace(v1).real - s1) < 1e-10
            assert abs(np.trace(v2).real - s2) < 1e-10

    def test_hermitian_with_real_diagonal(self):
        rng = np.random.default_rng(4)
        report = state_report(two_beam(random_symmetric(rng, 6, scale=0.8)))
        for v in (report.var_X1, report.var_X2):
            assert np.allclose(v, v.conj().T, atol=1e-12)
            assert np.abs(v.diagonal().imag).max() < 1e-13
            assert np.all(v.diagonal().real > 0)


class TestCrossCovariance:
    def test_zero_matrix(self):
        assert np.abs(state_report(two_beam(np.zeros((3, 3)))).cross_cov).max() == 0.0

    def test_pure_imaginary_single_mode(self):
        r = 0.31
        cov = state_report(two_beam([[1j * r]])).cross_cov
        # phase pi/2 rotates all pair correlation into the cross term
        assert cov[0, 0].real == pytest.approx(-0.5 * math.sinh(2 * r), rel=1e-12)
        assert abs(cov[0, 0].imag) < 1e-14

    def test_uncertainty_equality_for_symmetric(self):
        rng = np.random.default_rng(6)
        for gen in (random_normal_symmetric, random_symmetric):
            for n in (2, 9, 25):
                report = state_report(two_beam(gen(rng, n, scale=0.9)))
                v1, v2, cov = report.var_X1, report.var_X2, report.cross_cov
                residual = v1 @ v2 - 0.25 * (cov @ cov) - np.eye(n) / 16.0
                assert np.abs(residual).max() < 1e-10


class TestPhotonStatistics:
    def test_one_photon_point(self):
        r = math.asinh(1.0)
        report = state_report(two_beam([[r]]))
        total, nvar, ncov = report.nbar_total, report.number_variance, report.number_covariance
        assert total == pytest.approx(1.0, rel=1e-12)
        assert nvar == pytest.approx(2.0, rel=1e-12)
        assert ncov == pytest.approx(2.0, rel=1e-12)

    def test_vacuum(self):
        report = state_report(two_beam(np.zeros((3, 3))))
        assert np.abs(report.nbar_matrix).max() == 0.0
        assert report.nbar_total == 0.0 and report.number_variance == 0.0

    def test_uniform_four_modes(self):
        r = math.asinh(0.5)
        report = state_report(two_beam(r * np.eye(4)))
        assert report.nbar_total == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(report.nbar_matrix.diagonal().real, 0.25, atol=1e-12)

    def test_hyperbolic_consistency(self):
        rng = np.random.default_rng(7)
        sq = two_beam(random_symmetric(rng, 8, scale=0.9))
        nbar = state_report(sq).nbar_matrix
        ch2 = scipy.linalg.coshm(2 * polar_decompose(sq.xi)[0])
        alt = (0.5 * (ch2 - np.eye(8))).T
        assert np.abs(nbar - alt).max() < 1e-12


class TestPairCreation:
    def test_scalar(self):
        r = 0.27
        m = state_report(two_beam([[r]])).pair_matrix
        assert m[0, 0].real == pytest.approx(0.5 * math.sinh(2 * r), rel=1e-12)

    def test_diagonal_ratio(self):
        m = state_report(two_beam(np.diag([0.5, 0.2]))).pair_matrix
        assert np.abs(np.diag(np.diag(m)) - m).max() < 1e-14
        got = (m[0, 0] / m[1, 1]).real
        assert got == pytest.approx(math.sinh(1.0) / math.sinh(0.4), rel=1e-12)


class TestBogoliubov:
    def test_identity_for_vacuum(self):
        b = bogoliubov_matrix(two_beam(np.zeros((2, 2))))
        assert np.allclose(b, np.eye(8), atol=1e-15)

    def test_canonical_two_mode_blocks(self):
        r = 0.6
        b = bogoliubov_matrix(two_beam([[r]]))
        assert b[0, 0].real == pytest.approx(math.cosh(r), rel=1e-13)
        assert b[0, 3].real == pytest.approx(-math.sinh(r), rel=1e-13)
        assert b[1, 2].real == pytest.approx(-math.sinh(r), rel=1e-13)

    def test_symplectic_identity(self):
        rng = np.random.default_rng(9)
        for n, gen in ((3, random_normal_symmetric), (10, random_symmetric),
                       (25, random_symmetric)):
            sq = two_beam(gen(rng, n, scale=0.8))
            b = bogoliubov_matrix(sq)
            k = bogoliubov_metric(n)
            assert np.abs(b @ k @ b.conj().T - k).max() < 1e-12


class TestDegenerate:
    def make(self, xi):
        return SqueezeMatrix(xi=np.asarray(xi, dtype=complex), basis=None,
                             interaction=InteractionType.DEGENERATE_SINGLE_BEAM)

    def test_single_mode_one_photon(self):
        sigma = 0.5 * math.asinh(1.0)
        report = degenerate_statistics(self.make([[sigma]]))
        assert report.nbar_total == pytest.approx(1.0, rel=1e-12)
        assert report.var_X1[0, 0].real == pytest.approx(
            0.25 * math.exp(-4 * sigma), rel=1e-12
        )
        assert report.var_X2[0, 0].real == pytest.approx(
            0.25 * math.exp(4 * sigma), rel=1e-12
        )

    def test_vacuum(self):
        report = degenerate_statistics(self.make(np.zeros((3, 3))))
        assert np.allclose(report.var_X1, np.eye(3) / 4, atol=1e-14)
        assert report.nbar_total == 0.0

    def test_real_diagonal_stays_diagonal(self):
        report = degenerate_statistics(self.make(np.diag([0.4, 0.1])))
        assert abs(report.var_X1[0, 1]) < 1e-14
        assert report.var_X1[0, 0].real == pytest.approx(0.25 * math.exp(-1.6), rel=1e-12)

    def test_rejects_wrong_interaction(self):
        with pytest.raises(ValueError):
            degenerate_statistics(two_beam(np.eye(2) * 0.1))

    def test_rejects_non_symmetric(self):
        xi = np.array([[0.1, 0.2], [0.0, 0.1]])
        with pytest.raises(ValueError):
            degenerate_statistics(self.make(xi))


def svd_degenerate_report(xi):
    """Single-beam statistics from the plain SVD xi = W S V^dag of symmetric xi.

    For odd f, W f(S) V^dag is a function of xi alone, and for even g,
    W g(S) W^dag is too, so the Takagi-mode moments need no Takagi basis:
    <a a> = -1/2 W sinh(4S) V^dag and <a^dag a> = conj(W sinh^2(2S) W^dag).
    """
    w, s, vh = np.linalg.svd(xi)
    aa = -0.5 * (w * np.sinh(4 * s)) @ vh
    nn = ((w * np.sinh(2 * s) ** 2) @ w.conj().T).conj()
    eye = np.eye(len(s))
    v1 = 0.25 * (aa + aa.conj() + nn + nn.T + eye)
    v2 = 0.25 * (-aa - aa.conj() + nn + nn.T + eye)
    number_variance = float(np.sum(0.5 * np.sinh(4 * s) ** 2))
    return {
        "var_X1": v1,
        "var_X2": v2,
        "scalar_var": (np.trace(v1).real, np.trace(v2).real),
        "cross_cov": 0.25j * (aa.conj() - aa + nn.T - nn),
        "nbar_matrix": nn,
        "nbar_total": float(np.sum(np.sinh(2 * s) ** 2)),
        "number_variance": number_variance,
        "number_covariance": number_variance,
        "pair_matrix": aa.conj(),
        "squeezing_db_per_mode": 10 * np.log10(v1.diagonal().real / 0.25),
    }


def assert_report_matches(report, expected, tol=1e-12):
    """Every expected field within ``tol`` of its own scale (at least 1)."""
    for name, want in expected.items():
        got = np.asarray(getattr(report, name))
        want = np.asarray(want)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= tol * scale, name


def calibrated_matrix(coupling):
    sq, _ = scale_to_mean_photons(assemble_squeeze_matrix(coupling), 1.0)
    return sq


class TestDegenerateAtScenarioSizes:
    """``degenerate_statistics`` against the SVD route at the sizes runs use."""

    def test_stock_psr_single_photon(self, psr_results):
        sq = psr_results["PsrSinglePhoton"].squeeze
        assert sq.interaction is InteractionType.DEGENERATE_SINGLE_BEAM
        assert sq.size == 9 and np.linalg.matrix_rank(sq.xi) == 3
        assert_report_matches(degenerate_statistics(sq), svd_degenerate_report(sq.xi))

    def test_psr_single_photon_at_2_4(self):
        sq = calibrated_matrix(default_config("PsrSinglePhoton", 2, 4).coupling)
        assert sq.size == 25
        assert_report_matches(degenerate_statistics(sq), svd_degenerate_report(sq.xi))

    @pytest.mark.parametrize("rank", [81, 20])
    def test_seeded_81_modes(self, rank):
        rng = np.random.default_rng(81 + rank)
        a = rng.normal(size=(81, rank)) + 1j * rng.normal(size=(81, rank))
        xi = a @ a.T
        xi *= 0.6 / np.linalg.norm(xi, 2)
        sq = SqueezeMatrix(xi=xi, basis=None,
                           interaction=InteractionType.DEGENERATE_SINGLE_BEAM)
        assert np.linalg.matrix_rank(xi) == rank
        assert_report_matches(degenerate_statistics(sq), svd_degenerate_report(xi))


def block_exponential(x):
    """expm([[0, x], [x^dag, 0]]) = [[cosh R, sinh(R) P], [P^dag sinh R, ...]] for x = R P."""
    n = x.shape[0]
    z = np.zeros((n, n))
    return scipy.linalg.expm(np.block([[z, x], [x.conj().T, z]]))


def block_exponential_report(xi):
    """Every ``state_report`` field from the blocks of B(2 xi) and B(xi)."""
    n = xi.shape[0]
    b = block_exponential(2 * xi)
    b11, b12, b21 = b[:n, :n], b[:n, n:], b[n:, :n]
    h = block_exponential(xi)  # cosh R and sinh(R) P, for the scalar variances
    base = np.trace(b11).real
    cross = 2.0 * np.trace(h[:n, n:] @ h[:n, :n].T).real
    v1 = 0.125 * (b11 + b11.T - (b12 + b12.conj()))
    nbar = 0.5 * (b11 - np.eye(n)).T
    number_variance = 0.25 * np.trace(b11 @ b11 - np.eye(n)).real
    return {
        "var_X1": v1,
        "var_X2": 0.125 * (b11 + b11.T + (b12 + b12.conj())),
        "scalar_var": (0.25 * (base - cross), 0.25 * (base + cross)),
        "cross_cov": 0.25j * (b11 - b11.T + b12 - b12.conj()),
        "nbar_matrix": nbar,
        "nbar_total": np.trace(nbar).real,
        "number_variance": number_variance,
        "number_covariance": number_variance,
        "pair_matrix": 0.5 * b21,
        "squeezing_db_per_mode": 10 * np.log10(v1.diagonal().real / 0.25),
    }


STOCK_FIXTURES = {
    "PsrSinglePhoton": "psr_results",
    "PsrPCrosstalk": "psr_results",
    "FwmTwoPhoton": "psr_results",
    "PdcBenchmark": "pdc_benchmark",
    "PdcEigenPump": "pdc_eigen_pump",
    "PdcHeralding": "pdc_heralding",
    "WaistScan": "waist_scan",
}


class TestBlockExponentialOracle:
    """``state_report`` against the block exponential of the squeezer generator."""

    @pytest.mark.parametrize("name", list(STOCK_FIXTURES))
    def test_stock_scenario_reports(self, request, name):
        result = request.getfixturevalue(STOCK_FIXTURES[name])
        if isinstance(result, dict):
            result = result[name]
        assert_report_matches(result.report, block_exponential_report(result.squeeze.xi))

    def test_pdc_benchmark_at_4_8(self):
        sq = calibrated_matrix(default_config("PdcBenchmark", 4, 8).coupling)
        assert sq.size == 81
        assert_report_matches(state_report(sq), block_exponential_report(sq.xi))


class TestReport:
    def test_report_fields_consistent(self):
        rng = np.random.default_rng(12)
        basis = build_basis(1, 1)
        xi = random_symmetric(rng, basis.size, scale=0.7)
        sq = SqueezeMatrix(xi=xi, basis=basis, interaction=TWO_BEAM)
        report = state_report(sq)
        assert abs(np.trace(report.var_X1).real - report.scalar_var[0]) < 1e-10
        assert abs(np.trace(report.var_X2).real - report.scalar_var[1]) < 1e-10
        assert report.nbar_total == pytest.approx(
            np.trace(report.nbar_matrix).real, rel=1e-12
        )
        assert report.nbar_total >= 0
        assert len(report.mode_labels) == basis.size
        assert report.mode_labels[basis.index_of_fundamental()] == "l=0,p=0"
        db = report.squeezing_db_per_mode
        assert np.allclose(
            db, 10 * np.log10(report.var_X1.diagonal().real / 0.25), atol=1e-12
        )


class TestComputeOnce:
    @staticmethod
    def count_calls(monkeypatch):
        """Count polar_decompose, eigh and Schur calls from here on."""
        from lgsqueeze import squeeze_core

        calls = {"polar_decompose": 0, "eigh": 0, "schur": 0}
        for module, name in ((squeeze_core, "polar_decompose"), (np.linalg, "eigh"),
                             (scipy.linalg, "schur")):
            fn = getattr(module, name)

            def wrapper(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
        return calls

    def test_one_decomposition_and_one_eigh_per_scenario_matrix(self, monkeypatch):
        from lgsqueeze.coupling import assemble_squeeze_matrix, scale_to_mean_photons
        from lgsqueeze.scenarios import default_config, pair_dominance_metrics

        calls = self.count_calls(monkeypatch)
        cfg = default_config("PdcBenchmark").coupling
        sq, _ = scale_to_mean_photons(assemble_squeeze_matrix(cfg), 1.0)
        pair_dominance_metrics(state_report(sq), sq.basis)
        assert calls == {"polar_decompose": 1, "eigh": 1, "schur": 0}

    def test_degenerate_statistics_is_one_state_report_and_no_schur(self, monkeypatch,
                                                                     psr_results):
        from lgsqueeze import squeeze_core

        reports = []
        report = squeeze_core.state_report
        monkeypatch.setattr(squeeze_core, "state_report",
                            lambda sq: reports.append(1) or report(sq))
        calls = self.count_calls(monkeypatch)
        degenerate_statistics(psr_results["PsrSinglePhoton"].squeeze)
        # every matrix function is one of state_report's, on its one eigh
        assert reports == [1]
        assert calls == {"polar_decompose": 1, "eigh": 1, "schur": 0}

    def test_non_finite_matrix_rejected_at_construction(self):
        with pytest.raises(ValueError, match="finite"):
            two_beam([[np.nan]])
