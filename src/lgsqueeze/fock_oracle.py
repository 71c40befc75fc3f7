"""Brute-force verifier on a truncated Fock space.

The anti-Hermitian exponent of the squeezing unitary only moves photons in
pairs, so the vacuum explores a small part of the truncated space: a
two-beam exponent conserves N_a - N_b, and a degenerate one only reaches
the occupations its nonzero pair terms connect.  The oracle finds those
states by a breadth-first search over the pair moves (creation and
annihilation), builds the exponent on them as one sparse matrix, applies its
exponential to the vacuum vector and evaluates every statistic by direct
expectation value on that set and its one-ladder-step neighbours.  Both sets
are numbered by an int32 index map over the box, and the ladder images are
filled one mode row at a time, never all held at once.  Feasible only for a
handful of modes; each result carries a truncation-error estimate (the
amplitude on the highest occupation each excited mode reaches) so
comparisons against closed forms can be judged honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
# eager: a lazy import cut paper-suite setup_s 0.54->0.26 s but raised large-basis peak RSS 148->190 MB
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

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


def _exponent_on(terms: list, space: TruncatedFockSpace, states: np.ndarray):
    """Sparse G on ``states`` (sorted, closed under the pair moves), in one COO pass.

    Each A element lies above the diagonal (it lowers the index) and its
    partner -conj(c) in A^dag below it; no two elements share a position.
    """
    size = len(states)
    strides = space.strides
    occ = space.occupations(states)
    amps = [_pair_amplitude(occ, p, q) for p, q, _ in terms]
    half = sum(np.count_nonzero(amp) for amp in amps)
    ij = np.empty((2, half), dtype=np.int32)  # A's rows, then its columns
    vals = np.empty((2, half), dtype=complex)  # A's elements, then A^dag's
    index = np.zeros(space.dimension, dtype=np.int32)  # a box state's position in states
    index[states] = np.arange(size, dtype=np.int32)
    at = 0
    for (p, q, c), amp in zip(terms, amps):
        src = np.flatnonzero(amp)
        span = slice(at, at + len(src))
        ij[:, span] = index[states[src] - strides[p] - strides[q]], src
        vals[:, span] = c * amp[src], -np.conj(c) * amp[src]
        at = span.stop
    return sp.csr_matrix((vals.ravel(), (ij.ravel(), ij[::-1].ravel())), shape=(size, size))


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
    """<left_i | right_j> for stacked state vectors."""
    return left.conj() @ right.T


def _ladder_images(psi, occ, states, space: TruncatedFockSpace, n: int) -> np.ndarray:
    """a psi, b^dag psi, X1 psi and X2 psi, each stacked by mode, filled one
    mode row at a time on the reachable states' one-step neighbours."""
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

    # quadratures: joint (a + a^dag + b + b^dag)/2^{3/2} for two beams,
    # single-beam (a + a^dag)/2 in the degenerate case
    degenerate = space.n_modes == n
    scale = 0.5 if degenerate else 2.0 ** -1.5
    images = np.empty((4, n, size), dtype=complex)
    a_psi, bdag_psi, x1_psi, x2_psi = images
    for k in range(n):
        a_psi[k], adag = ladder(k, False), ladder(k, True)
        if degenerate:
            bdag_psi[k] = adag
            x1_psi[k] = scale * (a_psi[k] + adag)
            x2_psi[k] = -1j * scale * (a_psi[k] - adag)
        else:
            b, bdag_psi[k] = ladder(n + k, False), ladder(n + k, True)
            x1_psi[k] = scale * (a_psi[k] + adag + b + bdag_psi[k])
            x2_psi[k] = -1j * scale * (a_psi[k] - adag + b - bdag_psi[k])
    return images


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
    start = np.zeros(len(states), dtype=complex)
    start[0] = 1.0
    psi = expm_multiply(_exponent_on(terms, space, states), start)
    degenerate = space.n_modes == n

    occ = space.occupations(states)
    top = occ.max(axis=0)
    shell = np.any((occ == top) & (top > 0), axis=1)
    bound = float(np.linalg.norm(psi[shell]))

    a_psi, bdag_psi, x1_psi, x2_psi = _ladder_images(psi, occ, states, space, n)

    v1 = _expectation_matrix(x1_psi, x1_psi)
    v2 = _expectation_matrix(x2_psi, x2_psi)
    cross = _expectation_matrix(x1_psi, x2_psi)
    cov = cross.real  # 1/2 (<X1 X2~> + <X2 X1~>^T) elementwise

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
