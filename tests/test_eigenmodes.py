import math

import numpy as np
import pytest

from conftest import random_normal_symmetric
from lgsqueeze.coupling import InteractionType
from lgsqueeze import eigenmodes
from lgsqueeze.eigenmodes import (
    NORMALITY_TOL,
    decompose,
    eigenmode_pump,
    eigenmode_report,
    is_normal,
    state_coefficients,
)
from lgsqueeze.squeeze_core import SqueezeMatrix, state_report

TWO_BEAM = InteractionType.FULL_CROSSTALK


def two_beam(xi):
    return SqueezeMatrix(xi=np.asarray(xi, dtype=complex), basis=None,
                         interaction=TWO_BEAM)


class TestNormality:
    def test_hermitian_is_normal(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        ok, residual = is_normal(a + a.conj().T)
        assert ok and residual < 1e-15

    def test_jordan_block_residual(self):
        ok, residual = is_normal(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert not ok
        assert residual == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_zero_matrix(self):
        ok, residual = is_normal(np.zeros((3, 3)))
        assert ok and residual == 0.0

    def test_tol_validation(self):
        # the one threshold is NORMALITY_TOL; no call sets another
        with pytest.raises(TypeError):
            is_normal(np.eye(2), tol=1.0)

        def sheared(residual):
            # I + e N with N = [[0, 1], [0, 0]] has residual sqrt(2) e^2 / (2 + e^2)
            e2 = 2.0 * residual / (math.sqrt(2.0) - residual)
            return np.array([[1.0, math.sqrt(e2)], [0.0, 1.0]])

        assert is_normal(sheared(0.5 * NORMALITY_TOL))[0]
        assert not is_normal(sheared(2.0 * NORMALITY_TOL))[0]


class TestDecompose:
    def test_analytic_two_by_two(self):
        r, eps = 0.5, 0.1
        dec = decompose(two_beam([[r, eps], [eps, r]]))
        assert dec.lam == pytest.approx([r + eps, r - eps], abs=1e-12)
        u0 = dec.U[:, 0]
        assert np.allclose(np.abs(u0), [1 / math.sqrt(2)] * 2, atol=1e-12)
        assert u0[0].real > 0 and abs(u0[0].imag) < 1e-14

    def test_degenerate_spectrum_gives_identity(self):
        dec = decompose(two_beam(0.3 * np.eye(4)))
        assert np.allclose(dec.U, np.eye(4), atol=1e-12)
        assert np.allclose(dec.lam, 0.3, atol=1e-14)

    def test_rejects_non_normal(self):
        with pytest.raises(ValueError) as err:
            decompose(two_beam([[0.0, 0.4], [0.0, 0.0]]))
        assert "residual" in str(err.value)

    def test_unitarity_and_diagonalization(self):
        rng = np.random.default_rng(1)
        sq = two_beam(random_normal_symmetric(rng, 7))
        dec = decompose(sq)
        assert np.abs(dec.U @ dec.U.conj().T - np.eye(7)).max() < 1e-12
        prime = dec.U.conj().T @ sq.xi @ dec.U
        off = prime - np.diag(np.diagonal(prime))
        assert np.abs(off).max() < 1e-10
        assert np.all(np.diff(dec.lam) <= 1e-14)
        assert np.allclose(
            np.diagonal(prime), dec.lam * np.exp(1j * dec.theta_prime), atol=1e-10
        )


def full_sweep_cluster(vectors):
    """The cluster basis from a Gram-Schmidt sweep of every projector column,
    in index order."""
    n, k = vectors.shape
    proj = vectors @ vectors.conj().T
    out = []
    for col in range(n):
        if len(out) == k:
            break
        v = proj[:, col].copy()
        for u in out:
            v -= u * np.vdot(u, v)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            out.append(v / norm)
    return np.column_stack(out) if len(out) == k else vectors


def cluster_vectors(rng, n, k, support):
    """k orthonormal vectors on the ``support`` indices of n, with
    rounding-size leakage onto the rest, as a Schur form leaves them."""
    shape = (len(support), k)
    a = np.zeros((n, k), dtype=complex)
    a[support] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a += 1e-17 * rng.standard_normal((n, k))
    return np.linalg.qr(a)[0]


class TestClusterSkip:
    """The cluster sweep skips no projector column: a degenerate cluster's basis
    is the index-order sweep of every column, bit for bit, and the same to
    rounding whatever basis of the subspace the Schur form gave."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("sector", [False, True], ids=["generic", "sector"])
    def test_equals_the_full_sweep(self, seed, sector):
        rng = np.random.default_rng(seed)
        n, k = 60, 12
        support = np.sort(rng.permutation(n)[:20]) if sector else np.arange(n)
        vectors = cluster_vectors(rng, n, k, support)
        got = eigenmodes._canonicalize_cluster(vectors)
        want = full_sweep_cluster(vectors)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # another orthonormal basis of the same subspace gives the same basis
        turned = vectors @ np.linalg.qr(rng.standard_normal((k, k)))[0]
        assert np.abs(eigenmodes._canonicalize_cluster(turned) - got).max() < 1e-12


class TestEigenmodeReport:
    def test_scalar_values(self):
        lam = math.asinh(1.0)
        dec = decompose(two_beam([[lam]]))
        row = eigenmode_report(dec)[0]
        assert row.nbar == pytest.approx(1.0, rel=1e-12)
        assert row.variance_minus == pytest.approx(0.0428932, abs=1e-6)

    def test_vacuum_ellipse(self):
        dec = decompose(two_beam([[0.0]]))
        row = eigenmode_report(dec)[0]
        assert row.variance_minus == 0.25 and row.variance_plus == 0.25

    def test_photon_sum_matches_matrix_total(self):
        rng = np.random.default_rng(2)
        sq = two_beam(random_normal_symmetric(rng, 6))
        rows = eigenmode_report(decompose(sq))
        total = state_report(sq).nbar_total
        assert sum(r.nbar for r in rows) == pytest.approx(total, abs=1e-10)

    def test_basis_invariance_of_scalar_statistics(self):
        rng = np.random.default_rng(3)
        sq = two_beam(random_normal_symmetric(rng, 5))
        lam = decompose(sq).lam
        report = state_report(sq)
        v1, v2 = report.scalar_var
        total, nvar = report.nbar_total, report.number_variance
        assert total == pytest.approx(np.sum(np.sinh(lam) ** 2), abs=1e-10)
        assert nvar == pytest.approx(0.25 * np.sum(np.sinh(2 * lam) ** 2), abs=1e-10)
        # scalar variances are trace functions, so the eigenvalues with their
        # phases reproduce them as well
        theta = decompose(sq).theta_prime
        s1 = 0.25 * np.sum(np.cosh(2 * lam) - np.sinh(2 * lam) * np.cos(theta))
        s2 = 0.25 * np.sum(np.cosh(2 * lam) + np.sinh(2 * lam) * np.cos(theta))
        assert v1 == pytest.approx(s1, abs=1e-10)
        assert v2 == pytest.approx(s2, abs=1e-10)

    def test_best_mode_dominance(self):
        rng = np.random.default_rng(4)
        sq = two_beam(random_normal_symmetric(rng, 8))
        lam1 = decompose(sq).lam[0]
        report = state_report(sq)
        v1, v2 = report.var_X1, report.var_X2
        floor = 0.25 * math.exp(-2 * lam1) * (1 - 1e-12)
        assert v1.diagonal().real.min() >= floor
        assert v2.diagonal().real.min() >= floor


class TestEigenmodePump:
    def test_identity_unitary(self):
        dec = decompose(two_beam(np.diag([0.5, 0.2])))
        coeff = eigenmode_pump(dec, 1)
        assert np.allclose(coeff, [1.0, 0.0], atol=1e-14)

    def test_two_by_two(self):
        dec = decompose(two_beam([[0.5, 0.1], [0.1, 0.5]]))
        coeff = eigenmode_pump(dec, 1)
        assert np.allclose(np.abs(coeff), 1 / math.sqrt(2), atol=1e-12)
        assert np.linalg.norm(coeff) == pytest.approx(1.0, rel=1e-14)

    def test_index_range(self):
        dec = decompose(two_beam(np.diag([0.5, 0.2])))
        with pytest.raises(IndexError):
            eigenmode_pump(dec, 0)
        with pytest.raises(IndexError):
            eigenmode_pump(dec, 3)


class TestStateCoefficients:
    def test_vacuum(self):
        dec = decompose(two_beam([[0.0]]))
        amps, deficit = state_coefficients(dec, 5)
        assert amps[0, 0] == 1.0
        assert np.abs(amps[0, 1:]).max() == 0.0
        assert deficit[0] == 0.0

    def test_one_photon_point(self):
        lam = math.asinh(1.0)
        dec = decompose(two_beam([[lam]]))
        amps, deficit = state_coefficients(dec, 3)
        assert amps[0, 0] == pytest.approx(1 / math.sqrt(2), rel=1e-12)
        assert amps[0, 1] == pytest.approx(0.5, rel=1e-12)
        assert deficit[0] == pytest.approx(math.tanh(lam) ** 8, rel=1e-12)

    def test_norm_deficit_identity(self):
        dec = decompose(two_beam(np.diag([0.8, 0.3])))
        n_max = 6
        amps, deficit = state_coefficients(dec, n_max)
        assert np.allclose(1.0 - np.sum(amps ** 2, axis=1), deficit, atol=1e-12)

    def test_negative_n_max_rejected(self):
        dec = decompose(two_beam([[0.1]]))
        with pytest.raises(ValueError):
            state_coefficients(dec, -1)


class TestPairwiseSelectionRule:
    def test_pairs_created_in_matching_eigenmodes(self):
        # photons appear pairwise in the same eigenmode: the pair-amplitude
        # matrix is diagonal in the eigenbasis (brute-force check)
        from lgsqueeze.fock_oracle import TruncatedFockSpace, vacuum_statistics

        rng = np.random.default_rng(5)
        xi = random_normal_symmetric(rng, 2, scale=0.4)
        sq = two_beam(xi)
        dec = decompose(sq)
        oracle = vacuum_statistics(xi, TruncatedFockSpace(4, 12))
        pair_eigen = dec.U.T @ oracle.pair_matrix @ dec.U.conj()
        off = pair_eigen - np.diag(np.diagonal(pair_eigen))
        assert np.abs(off).max() < 10 * oracle.truncation_bound + 1e-10
