"""Polar decomposition of the squeezing matrix and closed-form state statistics.

The squeezing matrix xi factors as xi = R e^{i Theta} with R Hermitian
positive semidefinite (squeeze magnitudes) and Theta Hermitian (squeeze
phases).  R and Theta do not commute in general, so every formula here keeps
the operand order of its derivation; matrix functions are evaluated by
eigendecomposition of the Hermitian factor, and the statistics read the
unitary phase factor e^{i Theta} itself, so Theta is never formed.

The closed forms below describe the vacuum-seeded two-beam squeezer
S = exp[b~ xi^dag a - a~^dag xi b^dag] and are exact for symmetric xi (the
case produced by identical signal and idler collection geometries).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .coupling import InteractionType, SqueezeMatrix

__all__ = [
    "SqueezeMatrix",
    "StateReport",
    "polar_decompose",
    "degenerate_statistics",
    "bogoliubov_matrix",
    "bogoliubov_metric",
    "state_report",
]

VACUUM_VARIANCE = 0.25
SYMMETRY_RTOL = 1e-8  # relative size of xi - xi^T below which xi counts as symmetric


# half the completion's 1e-6 acceptance norm: a candidate whose remainder
# estimate is below it is one the sweep rejects.  The estimate differs from
# the swept norm by rounding only (at most 9.1e-16 over the two 441-mode
# PdcBenchmark completions), far inside the 5e-7 margin.
_COMPLETION_SKIP_NORM = 0.5e-6


def _complete_orthonormal(cols: np.ndarray, n: int):
    """Extend orthonormal columns to a full basis by Gram-Schmidt over e_1, e_2, ...

    Returns the basis and the remainder estimate of each candidate tried.
    The completion depends only on the input columns and the canonical basis
    order, so repeated runs produce identical factors.

    Column k of ``rest`` = I - Q Q^dag is what the sweep leaves of e_k, up to
    rounding (Bjorck, Linear Algebra Appl. 197-198, 1994), and each accepted
    vector takes the same rank-1 step off the columns after k.  A candidate
    whose estimate is below ``_COMPLETION_SKIP_NORM`` is one the sweep rejects,
    so it is skipped; every other one is swept exactly, and that sweep alone
    decides acceptance and forms the vector, so the basis is the same bit for
    bit as a sweep of every candidate.
    """
    have = [cols[:, k] for k in range(cols.shape[1])]
    rest = np.eye(n, dtype=complex) - cols @ cols.conj().T
    estimates = []
    k = 0
    while len(have) < n:
        estimates.append(np.linalg.norm(rest[:, k]))
        if estimates[-1] >= _COMPLETION_SKIP_NORM:
            v = np.zeros(n, dtype=complex)
            v[k] = 1.0
            for u in have:
                v -= u * np.vdot(u, v)
            norm = np.linalg.norm(v)
            if norm > 1e-6:
                q = v / norm
                have.append(q)
                rest[:, k + 1:] -= np.outer(q, q.conj() @ rest[:, k + 1:])
        k += 1
    return np.column_stack(have), estimates


def polar_decompose(xi: np.ndarray):
    """Left polar decomposition xi = R e^{i Theta}, returned as (R, phase).

    Computed from the SVD xi = W S V^dag as R = W S W^dag and
    phase = e^{i Theta} = W V^dag.  Zero singular values leave the phase
    underdetermined; those columns of W and V are replaced by a
    deterministic Gram-Schmidt completion against the canonical basis.
    """
    xi = np.asarray(xi, dtype=complex)
    n = xi.shape[0]
    if not np.all(np.isfinite(xi)):
        raise ValueError("xi must be finite")
    w, s, vh = np.linalg.svd(xi)
    cutoff = max(n, 1) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    if rank < n:
        w = _complete_orthonormal(w[:, :rank], n)[0]
        v = _complete_orthonormal(vh.conj().T[:, :rank], n)[0]
        s = np.concatenate([s[:rank], np.zeros(n - rank)])
        vh = v.conj().T
    r_factor = (w * s) @ w.conj().T
    r_factor = 0.5 * (r_factor + r_factor.conj().T)
    return r_factor, w @ vh


def _polar_functions(xi: np.ndarray):
    """The phase factor P of xi = R P and the map f -> f(R), from one eigh of R."""
    r_factor, phase = polar_decompose(xi)
    vals, vecs = np.linalg.eigh(r_factor)

    def of_r(fn):
        return (vecs * fn(vals)) @ vecs.conj().T

    return phase, of_r


@dataclass
class StateReport:
    """All closed-form statistics of the squeezed state for one matrix."""

    var_X1: np.ndarray
    var_X2: np.ndarray
    scalar_var: tuple
    cross_cov: np.ndarray
    nbar_matrix: np.ndarray
    nbar_total: float
    number_variance: float
    number_covariance: float
    pair_matrix: np.ndarray
    squeezing_db_per_mode: np.ndarray
    mode_labels: list


def bogoliubov_matrix(sq: SqueezeMatrix) -> np.ndarray:
    """Block transform of (a, b, a^dag, b^dag) under the squeezer.

    Blocks are C = cosh(R) and E = sinh(R) e^{i Theta}:
    a -> C a - E b^dag, b -> C b - E a^dag, and the conjugate rows.
    """
    n = sq.size
    phase, of_r = _polar_functions(sq.xi)
    c = of_r(np.cosh)
    e = of_r(np.sinh) @ phase
    z = np.zeros((n, n), dtype=complex)
    return np.block(
        [
            [c, z, z, -e],
            [z, c, -e, z],
            [z, -e.conj(), c.conj(), z],
            [-e.conj(), z, z, c.conj()],
        ]
    )


def bogoliubov_metric(n: int) -> np.ndarray:
    """Commutation metric K = diag(I_2n, -I_2n) preserved as B K B^dag = K."""
    return np.diag(np.concatenate([np.ones(2 * n), -np.ones(2 * n)]))


def _squeezing_db(variances: np.ndarray) -> np.ndarray:
    return 10.0 * np.log10(variances / VACUUM_VARIANCE)


# a statistic that overflows or is undefined is left inf or nan, without a
# warning, for the run to refuse by name
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def state_report(sq: SqueezeMatrix) -> StateReport:
    """The full two-beam statistics report of a squeezing matrix.

    Every field is a closed form in cosh/sinh of the polar factor R and the
    phase factor P = e^{i Theta} (X~ is the transpose of X, P* the complex
    conjugate; Serafini, Quantum Continuous Variables, 2017):

    - ``var_X1``, ``var_X2``: the joint-quadrature variance-covariance
      matrices V_{1,2} = 1/8 [cosh 2R + cosh 2R~ -/+ (sinh(2R) P
      + sinh(2R~) P*)]; Hermitian with real diagonal for symmetric xi.
    - ``scalar_var``: the total variances (v1, v2) summed over all modes,
      in the primitive operand order
      1/4 Tr{cosh^2 R + sinh^2 R -/+ 2 Re[sinh(R) P cosh(R~)]}, which is
      exact for arbitrary xi; the compact cosh(2R), sinh(2R) cos(Theta) form
      coincides with it for symmetric xi.  Vacuum gives (N/4, N/4).
    - ``cross_cov``: the symmetrized cross-covariance of the two joint
      quadratures, cov(X1, X2) = i/4 [cosh 2R - cosh 2R~ + sinh(2R) P
      - sinh(2R~) P*]; it vanishes identically for real symmetric xi and
      saturates the uncertainty relation for normal xi.
    - ``nbar_matrix``: <a_i^dag a_j> = sinh^2(R~), whose diagonal is the
      per-mode occupation of either beam; ``nbar_total`` is its trace.
    - ``number_variance`` and the beam-beam ``number_covariance``: both
      1/4 Tr sinh^2(2R).
    - ``pair_matrix``: the photon-pair creation matrix M = 1/2 P^dag sinh(2R),
      whose moduli weigh the signal/idler transverse-mode pairings.
    - ``squeezing_db_per_mode``: the V1 diagonal in dB against vacuum.

    cosh R, sinh R, cosh 2R and sinh 2R are formed once each from one
    eigendecomposition of R, and every product two fields share is formed
    once, each in the operand order of its derivation.
    """
    phase, of_r = _polar_functions(sq.xi)
    ch = of_r(np.cosh)
    sh = of_r(np.sinh)
    ch2 = of_r(lambda x: np.cosh(2 * x))
    sh2 = of_r(lambda x: np.sinh(2 * x))
    sh_sh = sh @ sh
    sh2_phase = sh2 @ phase
    sh2t_phase = sh2.T @ phase.conj()
    base = np.trace(ch @ ch).real + np.trace(sh_sh).real
    cross = 2.0 * np.trace(sh @ phase @ ch.T).real
    sym = ch2 + ch2.T
    correlation = sh2_phase + sh2t_phase
    v1 = 0.125 * (sym - correlation)
    v2 = 0.125 * (sym + correlation)
    cov = 0.25j * (ch2 - ch2.T + sh2_phase - sh2t_phase)
    nbar = sh_sh.T
    nbar = 0.5 * (nbar + nbar.conj().T)
    quarter_tr = 0.25 * np.trace(sh2 @ sh2).real
    pair = 0.5 * (phase.conj().T @ sh2)
    labels = sq.basis.labels() if sq.basis is not None else [str(i) for i in range(sq.size)]
    return StateReport(
        var_X1=v1,
        var_X2=v2,
        scalar_var=(0.25 * (base - cross), 0.25 * (base + cross)),
        cross_cov=cov,
        nbar_matrix=nbar,
        nbar_total=float(np.trace(nbar).real),
        number_variance=quarter_tr,
        number_covariance=quarter_tr,
        pair_matrix=pair,
        squeezing_db_per_mode=_squeezing_db(v1.diagonal().real),
        mode_labels=labels,
    )


def degenerate_statistics(sq: SqueezeMatrix) -> StateReport:
    """Statistics of the degenerate (single-beam) squeezer: ``state_report`` at 2 xi.

    With the idler operators identified with the signal operators, the
    Takagi modes of symmetric xi = W S W^T are independent single-mode
    squeezers with parameter 2 sigma_i, so the single-beam moments are those
    of the two-beam squeezer at 2 xi with b = a.  In the polar factors R, P
    of xi, <a_i a_j> = -1/2 [sinh(4R) P]_ij is the two-beam <a_i b_j> and
    <a_i^dag a_j> = [sinh^2(2R)]_ji the two-beam signal occupation.  The
    single-beam quadratures X = (a + a^dag)/2 therefore take ``var_X1``,
    ``var_X2``, ``scalar_var`` and ``squeezing_db_per_mode``, and the photon
    numbers ``nbar_matrix`` and ``nbar_total``, unchanged from the report at
    2 xi.  Three fields follow single-beam conventions:

    - ``cross_cov`` is the symmetrized moment, half the two-beam closed form;
    - ``pair_matrix`` is <a^dag a^dag> = conj<a a> = -1/2 P^dag sinh(4R),
      because sinh(4R) P is symmetric: the two-beam pair matrix negated;
    - ``number_variance`` is sum_i 1/2 sinh^2(4 sigma_i), twice the two-beam
      1/4 Tr sinh^2(4R); with one beam it is the ``number_covariance`` too.
    """
    if sq.interaction is not InteractionType.DEGENERATE_SINGLE_BEAM:
        raise ValueError("degenerate statistics require a degenerate-interaction matrix")
    scale = max(np.linalg.norm(sq.xi), 1e-300)
    if not np.linalg.norm(sq.xi - sq.xi.T) / scale < SYMMETRY_RTOL:
        raise ValueError("degenerate statistics require a symmetric matrix")
    rep = state_report(replace(sq, xi=2.0 * sq.xi))
    number_variance = 2.0 * rep.number_variance
    return replace(
        rep,
        cross_cov=0.5 * rep.cross_cov,
        pair_matrix=-rep.pair_matrix,
        number_variance=number_variance,
        number_covariance=number_variance,
    )
