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
vectors and copies no matrix.  Every statistic is then a direct expectation
value on the reached set and its one-ladder-step neighbours.  Both sets are
numbered by an int32 index map over the box, and at most two stacks of
ladder images are held, each filled one mode row at a time.  Feasible only
for a handful of modes; each result carries a truncation-error estimate (the
amplitude on the highest occupation each excited mode reaches) so
comparisons against closed forms can be judged honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# Eager on purpose.  Imported lazily, scipy.sparse cut paper-suite setup_s
# from 0.46 to 0.26 s but raised large-basis peak RSS from 145 to 188 MB.
# The heap a 441-mode run frees then stays mapped under glibc's dynamic trim
# threshold (with MALLOC_TRIM_THRESHOLD_=131072 both read 133-134 MB), and
# the benchmark's reading of the 66 MB report.json lands on top of it.
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
        """Occupation of every mode in ``states`` (default: all), shape (len, n_modes)."""
        if states is None:
            states = np.arange(self.dimension, dtype=np.int64)
        return (states[:, None] // self.strides) % (self.n_cut + 1)


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
    """Sparse A on ``states`` (sorted, closed under the pair moves), in one COO
    pass, and the 1-norm of G = A - A^dag.

    Each A element lies above the diagonal (it lowers the index) and its
    partner -conj(c) in A^dag below it, so no two elements of G share a
    position: a column of |G| sums to that column of |A| plus that row.
    """
    size = len(states)
    strides = space.strides
    occ = space.occupations(states)
    amps = [_pair_amplitude(occ, p, q) for p, q, _ in terms]
    nnz = sum(np.count_nonzero(amp) for amp in amps)
    rows = np.empty(nnz, dtype=np.int32)
    cols = np.empty(nnz, dtype=np.int32)
    vals = np.empty(nnz, dtype=complex)
    index = np.zeros(space.dimension, dtype=np.int32)  # a box state's position in states
    index[states] = np.arange(size, dtype=np.int32)
    at = 0
    for (p, q, c), amp in zip(terms, amps):
        src = np.flatnonzero(amp)
        span = slice(at, at + len(src))
        rows[span] = index[states[src] - strides[p] - strides[q]]
        cols[span] = src
        vals[span] = c * amp[src]
        at = span.stop
    weight = np.abs(vals)
    norm = float((np.bincount(cols, weight, size) + np.bincount(rows, weight, size)).max())
    del occ, amps, index, weight  # the conversion below copies every element
    return sp.csr_matrix((vals, (rows, cols)), shape=(size, size)), norm


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
    order past K and normalised by J_0 + 2 sum_k J_2k = 1.
    """
    order = math.floor(radius) + 1
    while math.log(2.0) + order * math.log(math.e * radius / (2 * order)) >= math.log(1e-17):
        order += 1
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
    A v - conj(A^T conj(v)), where A^T is a view: no matrix is copied.
    """
    psi = np.zeros(lower.shape[0], dtype=complex)
    psi[0] = 1.0
    if norm == 0.0:
        return psi
    weights = _bessel_weights(norm)
    transposed = lower.T  # a CSC view of A's arrays

    def step(v: np.ndarray) -> np.ndarray:
        """(2 / norm) G v"""
        out = lower @ v
        out -= (transposed @ v.conj()).conj()
        out *= 2.0 / norm
        return out

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


def _ladder_images(psi, occ, states, space: TruncatedFockSpace, n: int):
    """a psi and b^dag psi, each stacked by mode, and the map that gives any
    other one-step ladder image of psi, all on the reachable states' one-step
    neighbours; the stacks are filled one mode row at a time."""
    strides = space.strides
    marked = np.zeros(space.dimension, dtype=bool)
    marked[states] = True
    for k in range(space.n_modes):
        marked[states[occ[:, k] > 0] - strides[k]] = True
        marked[states[occ[:, k] < space.n_cut] + strides[k]] = True
    index = np.cumsum(marked, dtype=np.int32) - 1  # a marked state's position among them
    size = index[-1] + 1

    def ladder(k: int, raised: bool) -> np.ndarray:
        """a_k psi, or a_k^dag psi when ``raised``."""
        keep = occ[:, k] < space.n_cut if raised else occ[:, k] > 0
        step = strides[k] if raised else -strides[k]
        out = np.zeros(size, dtype=complex)
        out[index[states[keep] + step]] = np.sqrt(occ[keep, k] + raised) * psi[keep]
        return out

    images = np.empty((2, n, size), dtype=complex)
    for k in range(n):
        images[0, k] = ladder(k, False)
        images[1, k] = ladder(k if space.n_modes == n else n + k, True)
    return images, ladder


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

    (a_psi, bdag_psi), ladder = _ladder_images(psi, occ, states, space, n)
    nbar = _expectation_matrix(a_psi, a_psi)
    nbar_total = float(np.trace(nbar).real)

    # the number operators are diagonal: N psi is the occupation sum times psi
    na_psi = occ[:, :n].sum(axis=1) * psi
    nb_psi = na_psi if degenerate else occ[:, n:].sum(axis=1) * psi
    mean_na = float(np.vdot(psi, na_psi).real)
    mean_nb = float(np.vdot(psi, nb_psi).real)
    number_variance = float(np.vdot(na_psi, na_psi).real) - mean_na ** 2
    number_covariance = float(np.vdot(na_psi, nb_psi).real) - mean_na * mean_nb

    pair = _expectation_matrix(a_psi, bdag_psi)

    # X1 psi and X2 psi overwrite the two stacks row by row: with u = a + b
    # and w = a^dag + b^dag, X1 = (u + w)/2^{3/2} and X2 = -i (u - w)/2^{3/2}
    # for two beams; single-beam, u = a and w = a^dag, and the scale is 1/2
    scale = 0.5 if degenerate else 2.0 ** -1.5
    for k in range(n):
        u, w = a_psi[k], bdag_psi[k]
        if not degenerate:
            u += ladder(n + k, False)
            w += ladder(k, True)
        x2 = u - w
        u += w
        u *= scale
        np.multiply(-1j * scale, x2, out=w)
    x1_psi, x2_psi = a_psi, bdag_psi
    v1 = _expectation_matrix(x1_psi, x1_psi)
    v2 = _expectation_matrix(x2_psi, x2_psi)
    cross = _expectation_matrix(x1_psi, x2_psi)
    cov = cross.real  # 1/2 (<X1 X2~> + <X2 X1~>^T) elementwise

    return OracleReport(
        scalar_var=(float(np.trace(v1).real), float(np.trace(v2).real)),
        var_X1=v1,
        var_X2=v2,
        cross_cov=cov,
        nbar_matrix=nbar,
        nbar_total=nbar_total,
        number_variance=number_variance,
        number_covariance=number_covariance,
        pair_matrix=pair,
        truncation_bound=bound,
    )
