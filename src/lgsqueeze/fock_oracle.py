"""Brute-force verifier on a truncated Fock space.

The anti-Hermitian exponent of the squeezing unitary only moves photons in
pairs, so the vacuum explores a small part of the truncated space: a
two-beam exponent conserves N_a - N_b, and a degenerate one only reaches
the occupations its nonzero pair terms connect.  The oracle finds those
states by a breadth-first search over the pair moves (creation and
annihilation) and builds the exponent's lowering half A on them as one
sparse matrix; the exponent is G = A - A^dag.  The vacuum vector evolves
under a Chebyshev series of e^G (Tal-Ezer and Kosloff), summed by products
of A and of a transposed view of it with a vector: it holds three state
vectors and copies no matrix.  A is written straight into CSR arrays, so no
COO copy of it is held.  Every statistic is then a direct expectation value
on the reached set and the states one ladder step away.  Two beams conserve
N_a - N_b, so those ladder images split into a part that lowers it and a
part that raises it, on disjoint states; one stack of a part's images is
held at a time, on just the states they land on.  Feasible only for a
handful of modes; each result carries a truncation-error estimate (the
amplitude on the highest occupation each excited mode reaches) so
comparisons against closed forms can be judged honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
]

DIMENSION_GUARD = 600_000


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
    """Sorted indices of the states the pair moves connect to the vacuum."""
    strides = space.strides
    seen = np.zeros(space.dimension, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while terms and frontier.size:
        occ = space.occupations(frontier)
        level = np.zeros(space.dimension, dtype=bool)  # the next breadth-first level
        for p, q, _ in terms:
            step = strides[p] + strides[q]
            up = (occ[:, p] + 1 + (p == q) <= space.n_cut) & (occ[:, q] < space.n_cut)
            level[frontier[_pair_amplitude(occ, p, q) > 0] - step] = True
            level[frontier[up] + step] = True
        frontier = np.flatnonzero(level & ~seen)
        seen[frontier] = True
    return np.flatnonzero(seen)


def _lowering_on(terms: list, space: TruncatedFockSpace, states: np.ndarray):
    """Sparse A on ``states`` (sorted, closed under the pair moves), written
    straight into CSR arrays, and the 1-norm of G = A - A^dag.

    Each A element lies above the diagonal (it lowers the index) and its
    partner -conj(c) in A^dag below it, so no two elements of G share a
    position: a column of |G| sums to that column of |A| plus that row.  A
    counting pass keeps each term's rows and sums both by ``np.bincount``
    in term order, as they summed over COO triplets; a fill pass then
    writes the terms in ascending index step, so each row's columns come
    out sorted, as scipy's conversion from COO triplets leaves them.
    """
    size = len(states)
    strides = space.strides
    steps = [strides[p] + strides[q] for p, q, _ in terms]  # the index each term lowers by
    occ = space.occupations(states)
    index = np.zeros(space.dimension, dtype=np.int32)  # a box state's position in states
    index[states] = np.arange(size, dtype=np.int32)
    runs = []  # each term's rows
    col_sums, row_sums = np.zeros(size), np.zeros(size)
    counts = np.zeros(size + 1, dtype=np.int32)
    for (p, q, c), step in zip(terms, steps):
        amp = _pair_amplitude(occ, p, q)
        cols = np.flatnonzero(amp)
        rows = index[states[cols] - step]
        weight = np.abs(c * amp[cols])
        col_sums += np.bincount(cols, weight, size)
        row_sums += np.bincount(rows, weight, size)
        counts[1:] += np.bincount(rows, minlength=size).astype(np.int32)
        runs.append(rows)
    norm = float((col_sums + row_sums).max())
    del index, col_sums, row_sums
    indptr = np.cumsum(counts, dtype=np.int32)
    del counts
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1], dtype=complex)
    fill = indptr[:-1].copy()  # the next free slot of each row
    for t in np.argsort(steps):
        p, q, c = terms[t]
        rows = runs[t]
        runs[t] = None  # each term's rows are dropped once written
        amp = _pair_amplitude(occ, p, q)
        cols = np.flatnonzero(amp)
        at = fill[rows]
        indices[at] = cols
        data[at] = c * amp[cols]
        fill[rows] = at + 1
    return sp.csr_matrix((data, indices, indptr), shape=(size, size)), norm


def _exponent_on(terms: list, space: TruncatedFockSpace, states: np.ndarray):
    """Sparse G = A - A^dag on ``states`` (sorted, closed under the pair moves)."""
    lower = _lowering_on(terms, space, states)[0]
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


def _evolve_vacuum(lower, norm: float) -> np.ndarray:
    """e^G applied to state 0, for G = A - A^dag with lowering half ``lower``
    and 1-norm ``norm``.

    G is anti-Hermitian, so its inf-norm equals its 1-norm and bounds its
    spectral norm: H = iG is Hermitian with its spectrum in [-norm, norm],
    and e^G = e^{-iH} is a Chebyshev series in H / norm (Tal-Ezer and
    Kosloff).  With psi_k = (-i)^k T_k(H / norm) psi_0 the three-term
    recurrence reads psi_{k+1} = (2 / norm) G psi_k + psi_{k-1}, and G v is
    A v - conj(A^T conj(v)), where A^T is a view: no matrix is copied.  A
    norm so small that 2 / norm overflows leaves the series' first two
    terms, 1 + G, exact far below rounding.
    """
    psi = np.zeros(lower.shape[0], dtype=complex)
    psi[0] = 1.0
    if norm == 0.0:
        return psi
    transposed = lower.T  # a CSC view of A's arrays

    def step(v: np.ndarray, scale: float = 2.0 / norm) -> np.ndarray:
        """scale G v"""
        out = lower @ v
        out -= (transposed @ v.conj()).conj()
        out *= scale
        return out

    if 2.0 / norm == math.inf:
        return psi + step(psi, 1.0)
    weights = _bessel_weights(norm)
    prev, cur = psi, 0.5 * step(psi)
    series = weights[0] * prev + weights[1] * cur
    for weight in weights[2:]:
        ahead = step(cur)
        ahead += prev
        prev, cur = cur, ahead
        series += weight * cur
    return series


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
    a caller compares it with the deviation it can accept.
    """
    xi = np.asarray(xi, dtype=complex)
    n = xi.shape[0]
    terms = _pair_terms(xi, space)
    states = _reachable(terms, space)
    psi = _evolve_vacuum(*_lowering_on(terms, space, states))
    degenerate = space.n_modes == n

    occ = space.occupations(states)
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
