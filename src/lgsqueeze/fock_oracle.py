"""Brute-force verifier on a truncated Fock space.

The anti-Hermitian exponent of the squeezing unitary only moves photons in
pairs, so the vacuum explores a small part of the truncated space: a
two-beam exponent conserves N_a - N_b, and a degenerate one only reaches
the occupations its nonzero pair terms connect.  The oracle finds those
states by a breadth-first search over the pair moves (creation and
annihilation), builds the exponent on them as one sparse matrix, applies its
exponential to the vacuum vector and evaluates every statistic by direct
expectation value on that set and its one-ladder-step neighbours.  Feasible
only for a handful of modes; each result carries a truncation-error
estimate (the amplitude on the highest occupation each excited mode
reaches) so comparisons against closed forms can be judged honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
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
        found = []
        for p, q, _ in terms:
            step = strides[p] + strides[q]
            up = (occ[:, p] + 1 + (p == q) <= space.n_cut) & (occ[:, q] < space.n_cut)
            found.append(frontier[_pair_amplitude(occ, p, q) > 0] - step)
            found.append(frontier[up] + step)
        found = np.concatenate(found)
        frontier = np.unique(found[~seen[found]])
        seen[frontier] = True
    return np.flatnonzero(seen)


def _exponent_on(terms: list, space: TruncatedFockSpace, states: np.ndarray):
    """Sparse G on ``states`` (sorted, closed under the pair moves), in one COO pass.

    Each A element lies above the diagonal (it lowers the index) and its
    partner -conj(c) in A^dag below it; no two elements share a position.
    """
    size = len(states)
    if not terms:
        return sp.csr_matrix((size, size), dtype=complex)
    strides = space.strides
    occ = space.occupations(states)
    rows, cols, vals = [], [], []
    for p, q, c in terms:
        amp = _pair_amplitude(occ, p, q)
        src = np.flatnonzero(amp)
        dst = np.searchsorted(states, states[src] - strides[p] - strides[q])
        rows += [dst, src]
        cols += [src, dst]
        vals += [c * amp[src], -np.conj(c) * amp[src]]
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )


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

    # ladder images of psi live on the reachable states' one-step neighbours
    strides = space.strides
    lowered = [(occ[:, k] > 0, -strides[k], np.sqrt(occ[:, k])) for k in range(space.n_modes)]
    raised = [(occ[:, k] < space.n_cut, strides[k], np.sqrt(occ[:, k] + 1))
              for k in range(space.n_modes)]
    marked = np.zeros(space.dimension, dtype=bool)
    marked[states] = True
    for keep, step, _ in lowered + raised:
        marked[states[keep] + step] = True
    near = np.flatnonzero(marked)

    def ladder(keep, step, amp) -> np.ndarray:
        out = np.zeros(len(near), dtype=complex)
        out[np.searchsorted(near, states[keep] + step)] = amp[keep] * psi[keep]
        return out

    down = np.array([ladder(*move) for move in lowered])
    up = np.array([ladder(*move) for move in raised])
    a_psi, adag_psi = down[:n], up[:n]
    b_psi, bdag_psi = (a_psi, adag_psi) if degenerate else (down[n:], up[n:])

    # quadratures: joint (a + a^dag + b + b^dag)/2^{3/2} for two beams,
    # single-beam (a + a^dag)/2 in the degenerate case
    scale = 0.5 if degenerate else 2.0 ** -1.5
    plus = a_psi + adag_psi
    minus = a_psi - adag_psi
    if not degenerate:
        plus = plus + b_psi + bdag_psi
        minus = minus + b_psi - bdag_psi
    x1_psi = scale * plus
    x2_psi = -1j * scale * minus

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
