"""Eigenmodes of squeezing: diagonalization of a normal squeezing matrix.

When the squeezing matrix is normal (e.g. every beam focused at the centre
of the medium, ``focus_z = 0``), a single unitary U diagonalizes it and each
eigenmode behaves as a canonical two-mode squeezed vacuum with parameter
lambda_i = |eigenvalue_i|.
The largest lambda carries the strongest multimode squeezing, and feeding the
leading eigenvector back as the pump profile concentrates the interaction
further.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .squeeze_core import SqueezeMatrix, VACUUM_VARIANCE

__all__ = [
    "EigenDecomposition",
    "EigenmodeStats",
    "is_normal",
    "decompose",
    "eigenmode_report",
    "eigenmode_pump",
    "state_coefficients",
]

NORMALITY_TOL = 1e-8  # scaled commutator residual below which xi counts as normal


@dataclass
class EigenDecomposition:
    """Unitary eigenbasis of a normal squeezing matrix.

    Columns of U are eigenvectors ordered by descending modulus of the
    eigenvalue; lam holds the moduli and theta_prime the eigenvalue phases.
    """

    U: np.ndarray
    lam: np.ndarray
    theta_prime: np.ndarray
    normality_residual: float

    @property
    def size(self) -> int:
        return self.U.shape[0]


@dataclass
class EigenmodeStats:
    lam: float
    variance_minus: float
    variance_plus: float
    nbar: float
    theta: float


def is_normal(xi: np.ndarray):
    """Check normality of xi via the scaled commutator residual.

    residual = ||xi xi^dag - xi^dag xi||_F / ||xi||_F^2 (0 for the zero
    matrix); returns (residual < NORMALITY_TOL, residual).  xi is first scaled
    exactly, by a power of two, to parts below 1, so no product overflows.
    """
    xi = np.asarray(xi, dtype=complex)
    largest = max(float(np.max(np.abs(part), initial=0.0)) for part in (xi.real, xi.imag))
    if largest == 0.0:
        return True, 0.0
    power = -math.frexp(largest)[1]
    xi = np.ldexp(xi.real, power) + 1j * np.ldexp(xi.imag, power)
    scale = np.linalg.norm(xi) ** 2
    comm = xi @ xi.conj().T - xi.conj().T @ xi
    residual = float(np.linalg.norm(comm) / scale)
    return residual < NORMALITY_TOL, residual


def _canonicalize_cluster(vectors: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of a degenerate eigen-subspace.

    Gram-Schmidt of the canonical basis vectors projected onto the
    subspace, taken in index order; identical subspaces always yield the
    same basis (r I diagonalizes to the identity, for example).
    """
    n, k = vectors.shape
    proj = vectors @ vectors.conj().T
    out = []
    col = 0
    while len(out) < k and col < n:
        v = proj[:, col].copy()
        for u in out:
            v -= u * np.vdot(u, v)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            out.append(v / norm)
        col += 1
    return np.column_stack(out)


def _fix_phases(u: np.ndarray) -> np.ndarray:
    u = u.copy()
    for j in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, j])))
        pivot = u[i, j]
        u[:, j] *= np.conj(pivot) / abs(pivot)
    return u


def decompose(sq: SqueezeMatrix) -> EigenDecomposition:
    """Diagonalize a normal squeezing matrix by a unitary.

    Eigenvalues are reported as moduli lam (descending) and phases
    theta_prime; eigenvector phases are fixed by making the largest-modulus
    component real positive, and degenerate clusters are orthonormalized
    against the canonical basis order for reproducibility.
    """
    ok, residual = is_normal(sq.xi)
    if not ok:
        raise ValueError(
            f"squeezing matrix is not normal (residual {residual:.3e} >= tol {NORMALITY_TOL:.1e})"
        )
    import scipy.linalg

    t, q = scipy.linalg.schur(np.asarray(sq.xi, dtype=complex), output="complex")
    eigvals = np.diagonal(t).copy()
    order = np.argsort(-np.abs(eigvals), kind="stable")
    eigvals = eigvals[order]
    u = q[:, order]
    # regroup near-degenerate |eigenvalue| clusters deterministically
    lam = np.abs(eigvals)
    scale = max(lam[0], 1.0)
    start = 0
    for stop in range(1, len(lam) + 1):
        boundary = stop == len(lam) or not np.isclose(
            eigvals[stop], eigvals[start], rtol=0.0, atol=1e-10 * scale
        )
        if boundary:
            if stop - start > 1:
                u[:, start:stop] = _canonicalize_cluster(u[:, start:stop])
            start = stop
    u = _fix_phases(u)
    return EigenDecomposition(
        U=u,
        lam=lam,
        theta_prime=np.angle(eigvals),
        normality_residual=residual,
    )


def eigenmode_report(dec: EigenDecomposition) -> list:
    """Canonical two-mode squeezed-vacuum statistics per eigenmode.

    Each eigenmode has optimally-aligned quadrature variances
    (1/4) e^{-/+ 2 lambda_i} and mean photon number sinh^2(lambda_i); the
    photon numbers sum to the total of the full matrix.
    """
    rows = []
    for lam_i, th_i in zip(dec.lam, dec.theta_prime):
        rows.append(
            EigenmodeStats(
                lam=float(lam_i),
                variance_minus=VACUUM_VARIANCE * math.exp(-2.0 * lam_i),
                variance_plus=VACUUM_VARIANCE * math.exp(2.0 * lam_i),
                nbar=math.sinh(lam_i) ** 2,
                theta=float(th_i),
            )
        )
    return rows


def eigenmode_pump(dec: EigenDecomposition, k: int) -> np.ndarray:
    """Pump coefficients that drive the k-th eigenmode (k is 1-based).

    Returns row k of U^dag, i.e. the conjugated k-th eigenvector, as a
    unit-norm coefficient vector over the LG basis.
    """
    if not 1 <= k <= dec.size:
        raise IndexError(f"eigenmode index {k} out of range 1..{dec.size}")
    coeff = np.conj(dec.U[:, k - 1])
    return coeff / np.linalg.norm(coeff)


def state_coefficients(dec: EigenDecomposition, n_max: int):
    """Per-eigenmode Fock-pair amplitudes sech(lambda) tanh^n(lambda).

    Returns (amplitudes, norm_deficit) with amplitudes of shape
    (n_modes, n_max + 1); the deficit 1 - sum |c_n|^2 equals
    tanh^{2 (n_max + 1)}(lambda) per eigenmode.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    lam = dec.lam[:, None]
    n = np.arange(n_max + 1)[None, :]
    amps = (1.0 / np.cosh(lam)) * np.tanh(lam) ** n
    deficit = np.tanh(dec.lam) ** (2 * (n_max + 1))
    return amps, deficit
