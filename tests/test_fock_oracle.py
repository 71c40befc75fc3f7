import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.csgraph import breadth_first_order

from conftest import random_symmetric
from lgsqueeze.coupling import InteractionType
from lgsqueeze.fock_oracle import (
    TruncatedFockSpace,
    _exponent_on,
    _pair_terms,
    _reachable,
    build_hamiltonian_exponent,
    vacuum_statistics,
)
from lgsqueeze.squeeze_core import (
    SqueezeMatrix,
    degenerate_statistics,
    state_report,
)

# small cases the whole box can check; the last is two-beam with xi[1, 1] = 0,
# so |a0 a1 b0 b1> = |0 1 0 1> is reached only by creating a0 a1 b0 b1 and
# then annihilating the a0 b0 pair
FULL_BOX_CASES = pytest.mark.parametrize("xi, space", [
    (random_symmetric(np.random.default_rng(3), 1, scale=0.5), TruncatedFockSpace(2, 5)),
    (np.array([[0.3, 0.2], [0.2, 0.0]]), TruncatedFockSpace(2, 6)),
    (np.array([[0.45]]), TruncatedFockSpace(1, 11)),
    (np.array([[0.3, 0.2], [0.2, 0.0]]), TruncatedFockSpace(4, 3)),
], ids=["two-beam", "degenerate-two-mode", "degenerate-odd-cut", "two-beam-sparse"])

REPORT_FIELDS = ("scalar_var", "var_X1", "var_X2", "cross_cov", "nbar_matrix",
                 "nbar_total", "number_variance", "number_covariance",
                 "pair_matrix", "truncation_bound")


def full_box_statistics(xi, space):
    """Every oracle field on the whole truncated space, with dense matrices.

    The vacuum is evolved by a dense exponential of the full-space exponent;
    the truncation bound reads the shells of the states the exponent
    connects to the vacuum, found by a graph search on that matrix.
    """
    xi = np.asarray(xi, dtype=complex)
    n = xi.shape[0]
    gen = build_hamiltonian_exponent(xi, space)
    psi = scipy.linalg.expm(gen.toarray())[:, 0]
    levels = space.n_cut + 1
    lower = np.diag(np.sqrt(np.arange(1, levels)), 1)
    ops = [np.kron(np.kron(np.eye(levels ** k), lower),
                   np.eye(levels ** (space.n_modes - k - 1)))
           for k in range(space.n_modes)]
    degenerate = space.n_modes == n
    a_ops = ops[:n]
    b_ops = a_ops if degenerate else ops[n:]
    scale = 0.5 if degenerate else 2.0 ** -1.5
    x1 = [scale * (a + a.T + (0 if degenerate else b + b.T)) @ psi
          for a, b in zip(a_ops, b_ops)]
    x2 = [-1j * scale * (a - a.T + (0 if degenerate else b - b.T)) @ psi
          for a, b in zip(a_ops, b_ops)]
    a_psi = [a @ psi for a in a_ops]
    bdag_psi = [b.T @ psi for b in b_ops]

    def moments(left, right):
        return np.array([[np.vdot(u, v) for v in right] for u in left])

    na = sum(a.T @ a for a in a_ops) @ psi
    nb = sum(b.T @ b for b in b_ops) @ psi
    mean_na = np.vdot(psi, na).real
    mean_nb = np.vdot(psi, nb).real

    reachable = breadth_first_order(abs(gen), 0, directed=False,
                                    return_predecessors=False)
    occ = space.occupations()[reachable]
    top = occ.max(axis=0)
    shell = reachable[np.any((occ == top) & (top > 0), axis=1)]
    v1 = moments(x1, x1)
    v2 = moments(x2, x2)
    nbar = moments(a_psi, a_psi)
    return psi, {
        "scalar_var": (np.trace(v1).real, np.trace(v2).real),
        "var_X1": v1,
        "var_X2": v2,
        "cross_cov": moments(x1, x2).real,
        "nbar_matrix": nbar,
        "nbar_total": np.trace(nbar).real,
        "number_variance": np.vdot(na, na).real - mean_na ** 2,
        "number_covariance": np.vdot(na, nb).real - mean_na * mean_nb,
        "pair_matrix": moments(a_psi, bdag_psi),
        "truncation_bound": np.linalg.norm(psi[shell]),
    }


class TestSpace:
    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            TruncatedFockSpace(8, 8)
        space = TruncatedFockSpace(6, 8)
        assert space.dimension == 9 ** 6

    def test_occupations_enumeration(self):
        space = TruncatedFockSpace(2, 2)
        occ = space.occupations()
        assert occ.shape == (9, 2)
        assert list(occ[0]) == [0, 0]
        assert list(occ[-1]) == [2, 2]

    def test_mode_count_mismatch(self):
        with pytest.raises(ValueError):
            build_hamiltonian_exponent(np.eye(2), TruncatedFockSpace(3, 3))


class TestExponent:
    def test_zero_matrix_gives_zero_operator(self):
        gen = build_hamiltonian_exponent(np.zeros((1, 1)), TruncatedFockSpace(2, 3))
        assert gen.nnz == 0

    def test_pair_coupling_element(self):
        # two-beam 1x1 with n_cut=2: the exponent couples |00> and |11>
        # with amplitude -r from the ladder algebra
        r = 0.3
        space = TruncatedFockSpace(2, 2)
        gen = build_hamiltonian_exponent(np.array([[r]]), space).toarray()
        i00, i11 = 0, 1 * 3 + 1
        assert gen[i11, i00] == pytest.approx(-r)
        assert gen[i00, i11] == pytest.approx(r)

    def test_anti_hermitian(self):
        rng = np.random.default_rng(0)
        xi = random_symmetric(rng, 2, scale=0.5)
        gen = build_hamiltonian_exponent(xi, TruncatedFockSpace(4, 4))
        assert abs((gen + gen.conj().T)).max() == 0.0


class TestVacuumStatistics:
    def test_zero_matrix_is_exact_vacuum(self):
        rep = vacuum_statistics(np.zeros((2, 2)), TruncatedFockSpace(4, 4))
        assert rep.scalar_var == (pytest.approx(0.5), pytest.approx(0.5))
        assert np.allclose(rep.var_X1, np.eye(2) / 4, atol=1e-14)
        assert rep.nbar_total == pytest.approx(0.0, abs=1e-14)
        assert rep.truncation_bound == pytest.approx(0.0, abs=1e-14)

    def test_single_mode_photon_number(self):
        rep = vacuum_statistics(np.array([[0.5]]), TruncatedFockSpace(2, 8))
        assert rep.nbar_total == pytest.approx(math.sinh(0.5) ** 2, abs=1e-4)

    def test_two_mode_agreement_with_closed_forms(self):
        rng = np.random.default_rng(1)
        xi = random_symmetric(rng, 2, scale=0.45)
        sq = SqueezeMatrix(xi=xi, basis=None, interaction=InteractionType.FULL_CROSSTALK)
        rep = state_report(sq)
        oracle = vacuum_statistics(xi, TruncatedFockSpace(4, 10))
        tol = max(oracle.truncation_bound, 1e-9)
        assert np.abs(oracle.var_X1 - rep.var_X1).max() < tol
        assert np.abs(oracle.var_X2 - rep.var_X2).max() < tol
        assert np.abs(oracle.nbar_matrix - rep.nbar_matrix).max() < tol
        assert abs(oracle.number_variance - rep.number_variance) < tol
        # sign convention: the closed-form pair matrix is the negative of the
        # direct expectation under this exponent; moduli agree
        assert np.abs(oracle.pair_matrix + rep.pair_matrix).max() < tol
        # the published cross-covariance is twice the symmetrized moment
        assert np.abs(2.0 * oracle.cross_cov - rep.cross_cov).max() < tol

    def test_degenerate_parameter_doubling(self):
        # a degenerate squeezer with matrix entry sigma behaves as a
        # single-mode squeezer of parameter 2 sigma; brute force pins the 2
        sigma = 0.5 * math.asinh(1.0)
        oracle = vacuum_statistics(np.array([[sigma]]), TruncatedFockSpace(1, 40))
        assert oracle.nbar_total == pytest.approx(1.0, abs=1e-6)
        assert oracle.scalar_var[0] == pytest.approx(
            0.25 * math.exp(-4 * sigma), abs=1e-6
        )

    def test_degenerate_agreement_with_takagi_forms(self):
        rng = np.random.default_rng(2)
        xi = random_symmetric(rng, 2, scale=0.28)
        sq = SqueezeMatrix(xi=xi, basis=None,
                           interaction=InteractionType.DEGENERATE_SINGLE_BEAM)
        rep = degenerate_statistics(sq)
        oracle = vacuum_statistics(xi, TruncatedFockSpace(2, 24))
        tol = max(oracle.truncation_bound, 1e-8)
        assert np.abs(oracle.var_X1 - rep.var_X1).max() < tol
        assert np.abs(oracle.var_X2 - rep.var_X2).max() < tol
        assert np.abs(oracle.cross_cov - rep.cross_cov).max() < tol
        assert np.abs(oracle.nbar_matrix - rep.nbar_matrix).max() < tol
        assert np.abs(oracle.pair_matrix - rep.pair_matrix).max() < tol
        assert abs(oracle.number_variance - rep.number_variance) < tol

    @FULL_BOX_CASES
    def test_matches_full_space_brute_force(self, xi, space):
        psi, expected = full_box_statistics(xi, space)
        if space.n_modes == 2 and xi.shape == (2, 2):
            # |0, 2> is only reached by annihilating a pair from |2, 2>
            assert abs(psi[2]) > 1e-3
        if space.n_modes == 4:
            # |0 1 0 1>, reached only through an annihilation (FULL_BOX_CASES)
            assert abs(psi[space.strides[1] + space.strides[3]]) > 1e-3
        rep = vacuum_statistics(xi, space)
        for name in REPORT_FIELDS:
            assert np.abs(np.subtract(getattr(rep, name), expected[name])).max() < 1e-12, name

    @FULL_BOX_CASES
    def test_search_and_exponent_match_the_full_box(self, xi, space):
        # the search finds the vacuum's component of the full-box exponent's
        # graph, and the exponent on it is the full-box one restricted to it
        gen = build_hamiltonian_exponent(xi, space)
        component = breadth_first_order(abs(gen), 0, directed=False,
                                         return_predecessors=False)
        terms = _pair_terms(np.asarray(xi, dtype=complex), space)
        states = _reachable(terms, space)
        assert np.array_equal(states, np.sort(component))
        restricted = gen[states][:, states]
        assert (_exponent_on(terms, space, states) != restricted).nnz == 0

    def test_three_mode_draw_holds_at_most_40_mb(self):
        # a 3-mode, cut-8 two-beam draw reaches 32661 of 531441 states, with
        # 97245 one-step neighbours.  The peak is the exponent and the copies
        # expm_multiply makes (33.1 MB); holding every mode's lowered and
        # raised images of psi at once, 6 x 2 x 97245 x 16 B, took it to 50.8 MB
        xi = random_symmetric(np.random.default_rng(5), 3, scale=0.4)
        tracemalloc.start()
        try:
            vacuum_statistics(xi, TruncatedFockSpace(6, 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40e6, peak

    def test_truncation_bound_reads_the_highest_reached_shell(self):
        # photon parity keeps a degenerate single mode off an odd cut: the
        # bound is the amplitude on the highest even occupation, as at the
        # even cut below, where the evolved state is the same
        xi = np.array([[0.4]])
        odd = vacuum_statistics(xi, TruncatedFockSpace(1, 9))
        even = vacuum_statistics(xi, TruncatedFockSpace(1, 8))
        assert odd.truncation_bound > 0.1
        for name in ("truncation_bound", "nbar_total", "number_variance"):
            assert getattr(odd, name) == getattr(even, name), name
        # the closed-form photon number is off by a tenth of the bound
        assert abs(odd.nbar_total - math.sinh(0.8) ** 2) < odd.truncation_bound
