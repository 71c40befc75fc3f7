import math
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.special
from scipy.sparse.csgraph import breadth_first_order

from conftest import random_symmetric
from lgsqueeze.coupling import InteractionType
from lgsqueeze.fock_oracle import (
    COMPARED_FIELDS,
    TruncatedFockSpace,
    _bessel_weights,
    _evolve_vacuum,
    _exponent_on,
    _in_grade_order,
    _lowering_on,
    _pair_amplitude,
    _pair_terms,
    _reachable,
    build_hamiltonian_exponent,
    deviations,
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

REPORT_FIELDS = (*COMPARED_FIELDS, "truncation_bound")


def agreement_case(single_beam: bool):
    """An oracle report, the closed forms of the same matrix and the tolerance
    they agree to: a two-mode draw, two-beam or single-beam."""
    if single_beam:
        xi = random_symmetric(np.random.default_rng(2), 2, scale=0.28)
        rep = degenerate_statistics(SqueezeMatrix(
            xi=xi, basis=None, interaction=InteractionType.DEGENERATE_SINGLE_BEAM))
        oracle = vacuum_statistics(xi, TruncatedFockSpace(2, 24))
        return oracle, rep, max(oracle.truncation_bound, 1e-8)
    xi = random_symmetric(np.random.default_rng(1), 2, scale=0.45)
    rep = state_report(SqueezeMatrix(xi=xi, basis=None,
                                     interaction=InteractionType.FULL_CROSSTALK))
    oracle = vacuum_statistics(xi, TruncatedFockSpace(4, 10))
    return oracle, rep, max(oracle.truncation_bound, 1e-9)


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


def whole_box_blocks(xi, space):
    """The whole box in grade order and A's blocks and 1-norm on it."""
    ordered, occ, n_even = _in_grade_order(space, np.arange(space.dimension, dtype=np.int64))
    terms = _pair_terms(np.asarray(xi, dtype=complex), space)
    return ordered, _lowering_on(terms, space, ordered, occ, n_even)


def propagated(xi, space):
    """The Chebyshev propagator's e^G applied to the vacuum, on the whole box
    in state order."""
    ordered, blocks = whole_box_blocks(xi, space)
    psi = np.empty(space.dimension, dtype=complex)
    psi[ordered] = _evolve_vacuum(*blocks)
    return psi


def three_mode_draw():
    """The 3-mode, cut-8 two-beam draw: 32661 of 531441 states reached."""
    return random_symmetric(np.random.default_rng(5), 3, scale=0.4), TruncatedFockSpace(6, 8)


def grade_order(space, states):
    """Each position of ``states`` in grade order (even floor(N / 2) first,
    each grade in state order), and the count of even ones."""
    odd = space.occupations(states).sum(axis=1) // 2 % 2
    return np.argsort(np.argsort(odd, kind="stable")), int(np.sum(odd == 0))


def lowering_from_coo(terms, space, states, rank):
    """A on ``states`` built from COO triplets by scipy, each state numbered
    by ``rank``, and the 1-norm of G = A - A^dag from the triplets' column
    and row sums."""
    occ = space.occupations(states)
    index = np.zeros(space.dimension, dtype=np.int64)
    index[states] = np.arange(len(states))
    rows, cols, vals = [], [], []
    for p, q, c in terms:
        amp = _pair_amplitude(occ, p, q)
        src = np.flatnonzero(amp)
        rows.append(rank[index[states[src] - space.strides[p] - space.strides[q]]])
        cols.append(rank[src])
        vals.append(c * amp[src])
    rows, cols, vals = (np.concatenate(part) for part in (rows, cols, vals))
    size = len(states)
    weight = np.abs(vals)
    norm = (np.bincount(cols, weight, size) + np.bincount(rows, weight, size)).max()
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(size, size)), norm


class TestLowering:
    @staticmethod
    def assert_same_as_coo(xi, space, states):
        terms = _pair_terms(np.asarray(xi, dtype=complex), space)
        ordered, occ, n_even = _in_grade_order(space, states)
        rank, expected_n_even = grade_order(space, states)
        assert n_even == expected_n_even and np.array_equal(ordered[rank], states)
        assert np.array_equal(occ, space.occupations(ordered))
        even_rows, odd_rows, norm = _lowering_on(terms, space, ordered, occ, n_even)
        expected, expected_norm = lowering_from_coo(terms, space, states, rank)
        # a pair move changes the grade by one: A only links the two grades
        assert expected.nnz > 0 or not terms
        assert expected[:n_even, :n_even].nnz == expected[n_even:, n_even:].nnz == 0
        # each block holds A's arrays in grade order bit for bit, so every
        # product with a vector, and the Chebyshev sums over them, add in the
        # same order
        for block, part in ((even_rows, expected[:n_even, n_even:]),
                            (odd_rows, expected[n_even:, :n_even])):
            assert block.has_canonical_format and block.shape == part.shape
            assert np.array_equal(block.indptr, part.indptr)
            assert np.array_equal(block.indices, part.indices)
            assert np.array_equal(block.data, part.data)
        assert norm == expected_norm

    @FULL_BOX_CASES
    def test_matches_the_coo_built_matrix(self, xi, space):
        terms = _pair_terms(np.asarray(xi, dtype=complex), space)
        self.assert_same_as_coo(xi, space, _reachable(terms, space))
        self.assert_same_as_coo(xi, space, np.arange(space.dimension, dtype=np.int64))

    def test_matches_the_coo_built_matrix_on_the_three_mode_draw(self):
        xi, space = three_mode_draw()
        states = _reachable(_pair_terms(np.asarray(xi, dtype=complex), space), space)
        assert len(states) == 32661
        self.assert_same_as_coo(xi, space, states)

    def test_matches_the_coo_built_matrix_on_a_degenerate_three_mode_draw(self):
        # every mode pair is a term: 14896 of 29791 states, grades 0 to 45
        xi = random_symmetric(np.random.default_rng(7), 3, scale=0.5)
        space = TruncatedFockSpace(3, 30)
        states = _reachable(_pair_terms(np.asarray(xi, dtype=complex), space), space)
        assert len(states) == 14896
        self.assert_same_as_coo(xi, space, states)


class TestPropagator:
    @FULL_BOX_CASES
    def test_matches_a_dense_exponential(self, xi, space):
        dense = scipy.linalg.expm(build_hamiltonian_exponent(xi, space).toarray())[:, 0]
        assert np.abs(propagated(xi, space) - dense).max() < 1e-13

    def test_matches_a_dense_exponential_at_cut_300(self):
        # one degenerate mode at the cut the CLI's --oracle check uses:
        # 1-norm 358, so 526 products of G with a vector
        xi, space = np.array([[0.6]]), TruncatedFockSpace(1, 300)
        dense = scipy.linalg.expm(build_hamiltonian_exponent(xi, space).toarray())[:, 0]
        assert np.abs(propagated(xi, space) - dense).max() < 1e-13

    def test_reads_the_blocks_without_writing_them(self):
        # every array of both blocks read-only: a write into one raises
        xi, space = np.array([[0.3, 0.2], [0.2, 0.0]]), TruncatedFockSpace(4, 6)
        ordered, (even_rows, odd_rows, norm) = whole_box_blocks(xi, space)
        for block in (even_rows, odd_rows):
            for part in (block.data, block.indices, block.indptr):
                part.flags.writeable = False
        psi = np.empty(space.dimension, dtype=complex)
        psi[ordered] = _evolve_vacuum(even_rows, odd_rows, norm)
        assert np.array_equal(psi, propagated(xi, space))

    def test_zero_exponent_returns_the_vacuum(self):
        psi = propagated(np.zeros((2, 2)), TruncatedFockSpace(4, 3))
        vacuum = np.zeros(4 ** 4, dtype=complex)
        vacuum[0] = 1.0
        assert np.array_equal(psi, vacuum)

    def test_norm_is_the_exponent_one_norm(self):
        xi = random_symmetric(np.random.default_rng(4), 2, scale=0.5)
        space = TruncatedFockSpace(4, 4)
        norm = whole_box_blocks(xi, space)[1][2]
        gen = build_hamiltonian_exponent(xi, space)
        assert norm == pytest.approx(abs(gen).sum(axis=0).max(), rel=1e-15)

    @pytest.mark.parametrize("radius, products", [
        (5.35, 29), (17.17, 51), (41.13, 88), (526.18, 754),
    ])
    def test_bessel_weights(self, radius, products):
        # the series stops at the first order past the radius whose tail
        # bound 2 (e R / 2k)^k is below 1e-17, one product of G per order
        weights = _bessel_weights(radius)
        assert len(weights) == products + 1
        expected = scipy.special.jv(np.arange(products + 1), radius)
        expected[1:] *= 2.0
        assert np.abs(weights - expected).max() < 5e-14

    def test_a_subnormal_radius_gives_the_vacuum_limit_weights(self):
        # Miller's start 2 (K + 1) / radius overflows below about 2.2e-308;
        # e^{-i radius x} is then 1 - i radius x to far below rounding
        assert np.array_equal(_bessel_weights(1e-310), [1.0, 1e-310])

    def test_leaves_the_global_random_state_alone(self):
        # no oracle call may move numpy's global RNG; scipy's expm_multiply
        # did at 1-norms past about 63 (this one is 358), through onenormest
        before = np.random.get_state()
        vacuum_statistics(np.array([[0.6]]), TruncatedFockSpace(1, 300))
        after = np.random.get_state()
        assert np.array_equal(before[1], after[1]) and before[2:] == after[2:]


class TestVacuumStatistics:
    def test_zero_matrix_is_exact_vacuum(self):
        rep = vacuum_statistics(np.zeros((2, 2)), TruncatedFockSpace(4, 4))
        assert rep.scalar_var == (pytest.approx(0.5), pytest.approx(0.5))
        assert np.allclose(rep.var_X1, np.eye(2) / 4, atol=1e-14)
        assert rep.nbar_total == pytest.approx(0.0, abs=1e-14)
        assert rep.truncation_bound == pytest.approx(0.0, abs=1e-14)

    def test_a_subnormal_exponent_gives_the_vacuum_limit(self):
        # 2 / norm overflows for this exponent; the state is then 1 + G on
        # the vacuum, and no statistic may turn NaN or print a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = vacuum_statistics(np.array([[1e-310]]), TruncatedFockSpace(1, 4))
        assert rep.scalar_var == (0.25, 0.25)
        assert rep.var_X1[0, 0] == rep.var_X2[0, 0] == 0.25
        assert rep.cross_cov[0, 0] == 0.0
        assert rep.nbar_total == rep.number_variance == rep.truncation_bound == 0.0
        # <a psi | a^dag psi> = -2 xi to first order, on a subnormal xi
        assert rep.pair_matrix[0, 0] == pytest.approx(-2e-310, rel=1e-9)

    @pytest.mark.parametrize("entry", [1e308, np.inf, np.nan])
    def test_a_non_finite_one_norm_is_refused(self, entry):
        # 1e308 times a pair amplitude overflows; the Chebyshev series would
        # need its Bessel weights at an infinite radius
        with pytest.raises(ValueError, match="1-norm"):
            vacuum_statistics(np.array([[entry]]), TruncatedFockSpace(1, 4))

    def test_single_mode_photon_number(self):
        rep = vacuum_statistics(np.array([[0.5]]), TruncatedFockSpace(2, 8))
        assert rep.nbar_total == pytest.approx(math.sinh(0.5) ** 2, abs=1e-4)

    def test_two_mode_agreement_with_closed_forms(self):
        oracle, rep, tol = agreement_case(single_beam=False)
        found = deviations(oracle, rep, single_beam=False)
        assert max(found.values()) < tol, found

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
        oracle, rep, tol = agreement_case(single_beam=True)
        found = deviations(oracle, rep, single_beam=True)
        assert max(found.values()) < tol, found

    @pytest.mark.parametrize("single_beam", [False, True], ids=["two-beam", "single-beam"])
    @pytest.mark.parametrize("name, slip", [
        ("pair_matrix", lambda pair: -pair),
        ("cross_cov", lambda cov: 0.5 * cov),
    ], ids=["pair-matrix-negated", "cross-cov-halved"])
    def test_a_closed_form_off_by_a_convention_fails(self, single_beam, name, slip):
        # a check on the pair moduli alone, or one that skips cross_cov,
        # passes both slips
        oracle, rep, tol = agreement_case(single_beam)
        slipped = replace(rep, **{name: slip(getattr(rep, name))})
        found = deviations(oracle, slipped, single_beam)
        assert found[name] > 100 * tol
        assert max(value for key, value in found.items() if key != name) < tol

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

    @staticmethod
    def traced_peak(xi, space):
        """The traced-memory peak of one oracle call, in bytes."""
        tracemalloc.start()
        try:
            vacuum_statistics(xi, space)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_three_mode_draw_holds_at_most_11_5_mb(self):
        # a 3-mode, cut-8 two-beam draw reaches 32661 of 531441 states.  The
        # peak (9.1 MB) is the fill of A's CSR arrays (4.9 MB), with each
        # term's rows and the occupations beside them; the Chebyshev sum (A
        # and a few state vectors) and each of the two ladder-image stacks
        # (6 x 32292 x 16 B), read in place into a 6 x 6 Gram matrix, hold
        # less.  A COO copy of A and two stacks on every one-step neighbour
        # took it to 19.0 MB, and the copies expm_multiply made to 33.1 MB
        assert self.traced_peak(*three_mode_draw()) <= 11.5e6

    def test_three_coupled_degenerate_modes_at_the_cli_cut_hold_at_most_31_7_mb(self):
        # cut 83 is the --oracle check's cut for 3 coupled degenerate modes:
        # 74088 states reached, and the ladder stack (6 x 222264 x 16 B,
        # 21.3 MB) sets the peak (29.6 MB).  Its Gram matrix reads it in
        # place; writing X1 psi and X2 psi over it row by row read 33.3 MB,
        # and a conjugated copy of it would add the stack again
        xi, space = np.diag([0.05, 0.03, 0.02]), TruncatedFockSpace(3, 83)
        assert self.traced_peak(xi, space) <= 31.7e6

    def test_leaves_the_blas_pool_asleep(self):
        # no statistic calls BLAS: a BLAS call on state-length vectors
        # (np.vdot, np.linalg.norm) wakes an OpenBLAS thread pool, whose idle
        # worker then spun for about 0.15 s after the 3-mode draw, CPU time
        # burnt by a thread other than the caller's.  The first sleep lets
        # an earlier test's workers go idle, the second lets a spin show
        time.sleep(0.5)
        process, thread = time.process_time(), time.thread_time()
        vacuum_statistics(*three_mode_draw())
        time.sleep(0.3)
        others = (time.process_time() - process) - (time.thread_time() - thread)
        assert others < 0.03, others

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
