"""Brute-force verifier on a truncated Fock space.

The anti-Hermitian exponent of the squeezing unitary only moves photons in
pairs, so the vacuum explores a small part of the truncated space: a
two-beam exponent conserves N_a - N_b, and a degenerate one only reaches
the occupations its nonzero pair terms connect.  The oracle finds those
states by a breadth-first search over the pair moves (creation and
annihilation) and builds the exponent's lowering half A on them as one
sparse matrix; the exponent is G = A - A^dag.  A pair move changes the
pair grade floor(N / 2) by one, so G only links states of even grade to
states of odd grade; A numbers the even ones first and splits into its two
off-diagonal blocks.  The vacuum vector evolves under a Chebyshev series of
e^G (Tal-Ezer and Kosloff), whose k-th term lives on the grade of k's
parity: each product works on one block and a transposed view of the other
with a half-length vector, and no matrix is copied.  A is written straight
into CSR arrays, so no COO copy of it is held.  Every statistic is then a
direct expectation value on the reached set and the states one ladder step
away.  Two beams conserve N_a - N_b, so those ladder images split into a
part that lowers it and a part that raises it, on disjoint states; one
stack of a part's images is held at a time, on just the states they land
on.  Feasible only for a handful of modes; each result carries a
truncation-error estimate (the amplitude on the highest occupation each
excited mode reaches) so comparisons against closed forms can be judged
honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
# Eager on purpose.  Imported lazily, scipy.sparse cut paper-suite setup_s
# from 0.46 to 0.26 s but raised large-basis peak RSS from 145 to 188 MB,
# since every benchmark workload imports this module.  After a 441-mode pass
# the lazy copy's main heap stays at 64-69 MB, 54-57 MB of it free, with no
# Python object or array buffer in its top half: RSS stays at 122-125 MB,
# against 76-78 MB eager.  What pins the heap's top is the blocks freed
# during the pass into numpy's small-block data cache, which keeps blocks
# under 1 KiB and never returns them; with that cache filled at start-up (a
# diagnostic, not a fix) the lazy copy read 73-82 MB.  The benchmark's
# whole-file read of the 66 MB report.json then lands on top of that heap.
import scipy.sparse as sp

__all__ = [
    "TruncatedFockSpace",
    "OracleReport",
    "build_hamiltonian_exponent",
    "vacuum_statistics",
    "deviations",
]

DIMENSION_GUARD = 600_000
ORACLE_CAP = 1e-3  # the largest truncation bound a comparison accepts


@dataclass
class TruncatedFockSpace:
    """Tensor product of ``n_modes`` oscillators truncated at ``n_cut`` photons.

    The total dimension (n_cut + 1)^n_modes is guarded to stay desk-sized;
    six modes at n_cut = 8 (531441 states) is the intended ceiling.  A basis
    state is numbered by its occupations read as mixed-radix digits, mode 0
    most significant, so the vacuum is state 0.
    """

    n_modes: int
    n_cut: int
    dimension: int = field(init=False)

    def __post_init__(self):
        if self.n_modes < 1 or self.n_cut < 1:
            raise ValueError("n_modes and n_cut must be >= 1")
        dim = (self.n_cut + 1) ** self.n_modes
        if dim > DIMENSION_GUARD:
            raise ValueError(
                f"truncated space dimension {dim} exceeds guard {DIMENSION_GUARD}"
            )
        self.dimension = dim

    @property
    def strides(self) -> np.ndarray:
        """Index step of one photon in each mode."""
        return (self.n_cut + 1) ** np.arange(self.n_modes - 1, -1, -1, dtype=np.int64)

    def occupations(self, states: np.ndarray = None) -> np.ndarray:
        """Occupation of every mode in ``states`` (default: all), shape
        (len, n_modes), each mode's column contiguous."""
        if states is None:
            states = np.arange(self.dimension, dtype=np.int64)
        occ = np.empty((len(states), self.n_modes), dtype=np.int64, order="F")
        for k, stride in enumerate(self.strides.tolist()):
            np.remainder(states // stride, self.n_cut + 1, out=occ[:, k])
        return occ


@dataclass
class OracleReport:
    """Direct-expectation statistics plus the truncation-error estimate."""

    scalar_var: tuple
    var_X1: np.ndarray
    var_X2: np.ndarray
    cross_cov: np.ndarray
    nbar_matrix: np.ndarray
    nbar_total: float
    number_variance: float
    number_covariance: float
    pair_matrix: np.ndarray
    truncation_bound: float


# the statistics ``deviations`` compares: every field but the truncation bound
COMPARED_FIELDS = tuple(f.name for f in fields(OracleReport) if f.name != "truncation_bound")


def _pair_terms(xi: np.ndarray, space: TruncatedFockSpace) -> list:
    """Nonzero terms ``(p, q, c)`` of A with the exponent G = A - A^dag.

    A = sum_ij conj(xi[j, i]) b_i a_j annihilates one photon in mode p and
    one in mode q.  Signal modes come first in a two-beam space
    (n_modes == 2 n); in a degenerate space (n_modes == n) b is a, and the
    two orderings of a mode pair merge into one term.
    """
    n = xi.shape[0]
    if space.n_modes == 2 * n:
        terms = [(n + i, j, np.conj(xi[j, i])) for i in range(n) for j in range(n)]
    elif space.n_modes == n:
        terms = [(i, j, np.conj(xi[j, i] + (xi[i, j] if i != j else 0.0)))
                 for i in range(n) for j in range(i, n)]
    else:
        raise ValueError(
            f"space has {space.n_modes} modes; need {n} (degenerate) or {2 * n}"
        )
    return [term for term in terms if term[2] != 0.0]


def _pair_amplitude(occ: np.ndarray, p: int, q: int) -> np.ndarray:
    """sqrt of the occupations a_p a_q consumes; zero where it annihilates the state."""
    return np.sqrt(occ[:, p] * (occ[:, q] - (p == q)))


def _reachable(terms: list, space: TruncatedFockSpace) -> np.ndarray:
    """Sorted indices of the states the pair moves connect to the vacuum.

    Each breadth-first level comes from the frontier's moves alone: every
    unseen candidate is marked in ``seen`` with its position, and a state
    moved to twice is kept where its mark stuck.
    """
    strides = space.strides
    seen = np.zeros(space.dimension, dtype=np.int32)  # 0 until a state is reached
    seen[0] = -1
    frontier = np.zeros(1, dtype=np.int64)
    while terms and frontier.size:
        occ = space.occupations(frontier)
        moves = []
        for p, q, _ in terms:
            step = strides[p] + strides[q]
            up = (occ[:, p] + 1 + (p == q) <= space.n_cut) & (occ[:, q] < space.n_cut)
            moves += [frontier[_pair_amplitude(occ, p, q) > 0] - step, frontier[up] + step]
        candidates = np.concatenate(moves)
        fresh = candidates[seen[candidates] == 0]
        marks = np.arange(1, fresh.size + 1, dtype=np.int32)
        seen[fresh] = marks  # one of a repeated state's marks sticks
        frontier = fresh[seen[fresh] == marks]
    return np.flatnonzero(seen)


def _lowering_on(terms: list, space: TruncatedFockSpace, states: np.ndarray,
                 occ: np.ndarray):
    """Sparse A on ``states`` (sorted, closed under the pair moves, with
    occupations ``occ``), written straight into CSR arrays in grade order;
    the 1-norm of G = A - A^dag; each sorted position's place in that
    order; and the count of states of even pair grade floor(N / 2), which
    come first, each grade in state order.

    A pair move changes the total photon number N by two, so it changes the
    grade by one: both diagonal blocks of A in grade order are empty.  Each
    A element takes its column's state to a lower one and its partner
    -conj(c) in A^dag the other way, so no two elements of G share a
    position: a column of |G| sums to that column of |A| plus that row.  A
    counting pass keeps each term's rows and sums both by ``np.bincount`` in
    term order, as they summed over COO triplets; a fill pass then writes
    the terms in ascending index step, with each row's next free slot kept
    in ``indptr`` itself.  A row's columns all have the other grade, in
    which grade order is state order, so they come out sorted, as scipy's
    conversion from COO triplets leaves them; they are written as sorted
    positions and renumbered once each term's rows are dropped.  A
    non-finite 1-norm raises ValueError before the fill.
    """
    size = len(states)
    strides = space.strides
    steps = [strides[p] + strides[q] for p, q, _ in terms]  # the index each term lowers by
    odd = occ.sum(axis=1) & 2 > 0  # where the grade is odd
    n_even = size - np.count_nonzero(odd)
    rank = np.empty(size, dtype=np.int32)  # each sorted position's place in grade order
    rank[~odd] = np.arange(n_even)
    rank[odd] = np.arange(n_even, size)
    del odd
    index = np.zeros(space.dimension, dtype=np.int32)  # a box state's place in grade order
    index[states] = rank
    runs = []  # each term's rows
    col_sums, row_sums = np.zeros(size), np.zeros(size)
    counts = np.zeros(size + 1, dtype=np.int32)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm is refused below
        for (p, q, c), step in zip(terms, steps):
            amp = _pair_amplitude(occ, p, q)
            cols = np.flatnonzero(amp)
            rows = index[states[cols] - step]
            weight = np.abs(c * amp[cols])
            col_sums += np.bincount(rank[cols], weight, size)
            row_sums += np.bincount(rows, weight, size)
            counts[1:] += np.bincount(rows, minlength=size).astype(np.int32)
            runs.append(rows)
        norm = float((col_sums + row_sums).max())
    if not math.isfinite(norm):
        raise ValueError(f"the exponent's 1-norm is {norm}; the oracle needs a finite one")
    del index, col_sums, row_sums
    indptr = np.cumsum(counts, dtype=np.int32)
    del counts
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1], dtype=complex)
    fill = indptr[:-1]  # each row's next free slot, and its end once written
    for t in np.argsort(steps):
        p, q, c = terms[t]
        rows = runs[t]
        runs[t] = None  # each term's rows are dropped once written
        amp = _pair_amplitude(occ, p, q)
        cols = np.flatnonzero(amp)
        amp = amp[cols]
        at = fill[rows]
        indices[at] = cols
        data[at] = c * amp
        fill[rows] = at + 1
    indptr[1:] = indptr[:-1]  # each row's end, one place on, is the next one's start
    indptr[0] = 0
    indices = rank[indices]  # within a row's grade, state order is kept
    return sp.csr_matrix((data, indices, indptr), shape=(size, size)), norm, rank, n_even


def _exponent_on(terms: list, space: TruncatedFockSpace, states: np.ndarray):
    """Sparse G = A - A^dag on ``states`` (sorted, closed under the pair
    moves), in their order."""
    lower, _, rank, _ = _lowering_on(terms, space, states, space.occupations(states))
    lower = lower[rank][:, rank]
    return lower - lower.conj().T


def _bessel_weights(radius: float) -> np.ndarray:
    """(2 - delta_k0) J_k(radius) for k = 0..K, the Chebyshev weights of
    e^{-i radius x} = sum_k (-i)^k w_k T_k(x) on [-1, 1].

    K is the first order past ``radius`` where the tail bound
    2 (e radius / 2k)^k falls below 1e-17.  J_k comes from Miller's
    backward recurrence J_{k-1} = (2k / radius) J_k - J_{k+1}, started one
    order past K and normalised by J_0 + 2 sum_k J_2k = 1.  Where its start
    2 (K + 1) / radius overflows, the weights are the vacuum limit
    J_0 = 1, 2 J_1 = radius, exact far below rounding.
    """
    order = math.floor(radius) + 1
    while math.log(2.0) + order * math.log(math.e * radius / (2 * order)) >= math.log(1e-17):
        order += 1
    if 2.0 * (order + 1) / radius == math.inf:
        return np.array([1.0, radius])
    bessel = [0.0, 1.0]  # J_{K+2}, J_{K+1}, up to a common factor
    for k in range(order + 1, 0, -1):
        bessel.append(2.0 * k / radius * bessel[-1] - bessel[-2])
        if abs(bessel[-1]) > 1e100:  # keep the common factor in range
            bessel = [j / abs(bessel[-1]) for j in bessel]
    weights = 2.0 * np.array(bessel[::-1][: order + 1])
    weights[0] /= 2.0
    return weights / (weights[0] + weights[2::2].sum())


def _evolve_vacuum(lower, norm: float, rank: np.ndarray, n_even: int) -> np.ndarray:
    """e^G applied to state 0, in sorted state order, for G = A - A^dag with
    lowering half ``lower``, 1-norm ``norm``, grade order ``rank`` and
    ``n_even`` states of even grade, as ``_lowering_on`` returns them.

    G is anti-Hermitian, so its inf-norm equals its 1-norm and bounds its
    spectral norm: H = iG is Hermitian with its spectrum in [-norm, norm],
    and e^G = e^{-iH} is a Chebyshev series in H / norm (Tal-Ezer and
    Kosloff).  With psi_k = (-i)^k T_k(H / norm) psi_0 the three-term
    recurrence reads psi_{k+1} = (2 / norm) G psi_k + psi_{k-1}.  G only
    links the two grades and the vacuum's is even, so psi_k lives on the
    grade of k's parity, and the series is kept as two half sums, put back
    in sorted state order at the end.  In grade order A = [[0, E], [O, 0]],
    and G takes an even v to O v - conj(E^T conj(v)) and an odd one to
    E v - conj(O^T conj(v)).  E and O are views of A's arrays, with E's
    column indices shifted in place while the series is summed (only O's
    row pointers are new), and their transposes are views of them: no
    matrix is copied, and beside A the sum holds three half-length state
    vectors and the series.  Each entry of a product adds the same terms in
    the same order as a product with the whole of A would.  A norm so small
    that 2 / norm overflows leaves the series' first two terms, 1 + G, exact
    far below rounding.
    """
    size = lower.shape[0]
    if norm == 0.0:
        psi = np.zeros(size, dtype=complex)
        psi[0] = 1.0
        return psi
    cut = lower.indptr[n_even]
    lower.indices[:cut] -= n_even  # E's columns, numbered within the odd grade
    even_rows = sp.csr_matrix((lower.data[:cut], lower.indices[:cut], lower.indptr[:n_even + 1]),
                              shape=(n_even, size - n_even))
    odd_rows = sp.csr_matrix((lower.data[cut:], lower.indices[cut:], lower.indptr[n_even:] - cut),
                             shape=(size - n_even, n_even))
    # G's block from each grade to the other: a matrix and a transposed view
    blocks = ((odd_rows, even_rows.T), (even_rows, odd_rows.T))

    def step(v: np.ndarray, grade: int, scale: float = 2.0 / norm) -> np.ndarray:
        """scale G v, for v of ``grade``'s parity"""
        matrix, transposed = blocks[grade]
        out = matrix @ v
        out -= (transposed @ v.conj()).conj()
        out *= scale
        return out

    vacuum = np.zeros(n_even, dtype=complex)
    vacuum[0] = 1.0
    series = np.empty(size, dtype=complex)  # in grade order
    sums = [series[:n_even], series[n_even:]]  # a half sum on each grade
    if 2.0 / norm == math.inf:
        sums[0][:] = vacuum
        sums[1][:] = step(vacuum, 0, 1.0)
    else:
        weights = _bessel_weights(norm)
        prev, cur = vacuum, 0.5 * step(vacuum, 0)
        np.multiply(weights[0], prev, out=sums[0])
        np.multiply(weights[1], cur, out=sums[1])
        for k, weight in enumerate(weights[2:], 2):
            ahead = step(cur, 1 - k % 2)
            ahead += prev
            prev, cur = cur, ahead
            sums[k % 2] += weight * cur
    lower.indices[:cut] += n_even
    return series[rank]


def build_hamiltonian_exponent(xi: np.ndarray, space: TruncatedFockSpace):
    """Sparse anti-Hermitian exponent of the squeezing unitary on the whole space.

    For a two-beam space (n_modes == 2 n) the exponent is
    b~ xi^dag a - a~^dag xi b^dag with signal modes first; for a degenerate
    space (n_modes == n) the idler operators are replaced by the signal
    ones.  Matrix elements follow from ladder-operator algebra exactly.
    """
    xi = np.asarray(xi, dtype=complex)
    states = np.arange(space.dimension, dtype=np.int64)
    return _exponent_on(_pair_terms(xi, space), space, states)


def _expectation_matrix(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """<left_i | right_j> for stacked state vectors, conjugating no copy of ``left``."""
    return np.array([[np.vdot(u, v) for v in right] for u in left])


def _ladder_stack(psi, occ, states, space: TruncatedFockSpace, ladders: list) -> np.ndarray:
    """The one-step ladder images of psi, one row per ladder (k, raised):
    a_k psi, or a_k^dag psi when raised, on just the states they land on.

    Those states are numbered once by an int32 map over the box, which is
    dropped before the stack is filled.
    """
    strides = space.strides

    def moved(k: int, raised: int):
        """The reached states the ladder keeps, and the states it takes them to."""
        keep = occ[:, k] < space.n_cut if raised else occ[:, k] > 0
        return keep, states[keep] + (strides[k] if raised else -strides[k])

    index = np.zeros(space.dimension, dtype=np.int32)
    for ladder in ladders:
        index[moved(*ladder)[1]] = 1
    np.cumsum(index, out=index)  # one past a landing state's position among them
    landings = []
    for ladder in ladders:
        keep, targets = moved(*ladder)
        landings.append((keep, index[targets] - 1))
    size = index[-1]
    del index
    stack = np.zeros((len(ladders), size), dtype=complex)
    for row, ((k, raised), (keep, at)) in enumerate(zip(ladders, landings)):
        stack[row, at] = np.sqrt(occ[keep, k] + raised) * psi[keep]
    return stack


def vacuum_statistics(xi: np.ndarray, space: TruncatedFockSpace) -> OracleReport:
    """Evolve the vacuum and measure every statistic directly.

    The truncation bound is the L2 amplitude of the state on basis states
    where some excited mode sits at the highest occupation any reachable
    state gives it (the cut, unless a conservation law stops short of it);
    a caller compares it with the deviation it can accept.  An exponent
    whose 1-norm is not finite raises ValueError.
    """
    xi = np.asarray(xi, dtype=complex)
    n = xi.shape[0]
    terms = _pair_terms(xi, space)
    states = _reachable(terms, space)
    occ = space.occupations(states)  # shared by A's build and the statistics
    psi = _evolve_vacuum(*_lowering_on(terms, space, states, occ))
    degenerate = space.n_modes == n

    top = occ.max(axis=0)
    shell = np.any((occ == top) & (top > 0), axis=1)
    bound = float(np.linalg.norm(psi[shell]))

    # the number operators are diagonal: N psi is the occupation sum times psi
    na_psi = occ[:, :n].sum(axis=1) * psi
    nb_psi = na_psi if degenerate else occ[:, n:].sum(axis=1) * psi
    mean_na = float(np.vdot(psi, na_psi).real)
    mean_nb = float(np.vdot(psi, nb_psi).real)
    number_variance = float(np.vdot(na_psi, na_psi).real) - mean_na ** 2
    number_covariance = float(np.vdot(na_psi, nb_psi).real) - mean_na * mean_nb

    # with u = a + b and w = a^dag + b^dag, X1 = (u + w)/2^{3/2} and
    # X2 = -i (u - w)/2^{3/2} for two beams; single-beam, u = a and
    # w = a^dag, and the scale is 1/2.  Two beams conserve N_a - N_b, so
    # u psi and w psi each split into a part that lowers it (a psi and
    # b^dag psi) and a part that raises it (b psi and a^dag psi), which land
    # on disjoint states and are stacked one after the other
    modes = range(n)
    if degenerate:
        parts = [([(k, 0) for k in modes], [(k, 1) for k in modes])]
    else:
        parts = [([(k, 0) for k in modes], [(n + k, 1) for k in modes]),
                 ([(n + k, 0) for k in modes], [(k, 1) for k in modes])]
    scale = 0.5 if degenerate else 2.0 ** -1.5
    v1, v2, cross = (np.zeros((n, n), dtype=complex) for _ in range(3))
    for number, (u_part, w_part) in enumerate(parts):
        stack = _ladder_stack(psi, occ, states, space, u_part + w_part)
        u, w = stack[:n], stack[n:]
        if number == 0:  # a psi and b^dag psi
            nbar = _expectation_matrix(u, u)
            pair = _expectation_matrix(u, w)
        # X1 psi and X2 psi overwrite the stack row by row
        for k in modes:
            x2 = u[k] - w[k]
            u[k] += w[k]
            u[k] *= scale
            np.multiply(-1j * scale, x2, out=w[k])
        v1 += _expectation_matrix(u, u)
        v2 += _expectation_matrix(w, w)
        cross += _expectation_matrix(u, w)
        del stack, u, w, x2  # before the next part's stack is filled
    cov = cross.real  # 1/2 (<X1 X2~> + <X2 X1~>^T) elementwise

    return OracleReport(
        scalar_var=(float(np.trace(v1).real), float(np.trace(v2).real)),
        var_X1=v1,
        var_X2=v2,
        cross_cov=cov,
        nbar_matrix=nbar,
        nbar_total=float(np.trace(nbar).real),
        number_variance=number_variance,
        number_covariance=number_covariance,
        pair_matrix=pair,
        truncation_bound=bound,
    )


def deviations(oracle: OracleReport, report, single_beam: bool) -> dict:
    """The largest |oracle - closed form| of every statistic the oracle measures.

    ``report`` holds the closed forms of the same matrix under the oracle's
    field names (a ``squeeze_core.StateReport``).  A single-beam report
    (``degenerate_statistics``) keeps the oracle's conventions.  A two-beam
    one (``state_report``) holds the published cross-covariance, twice the
    symmetrized moment the oracle measures, and the pair matrix
    1/2 P^dag sinh(2R), the negative of <a b> under this exponent.
    """
    factors = {} if single_beam else {"cross_cov": 2.0, "pair_matrix": -1.0}
    return {
        name: float(np.abs(factors.get(name, 1.0) * np.asarray(getattr(oracle, name))
                           - getattr(report, name)).max())
        for name in COMPARED_FIELDS
    }
