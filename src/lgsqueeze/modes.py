"""Laguerre-Gauss transverse modes and the canonical mode-basis ordering.

Modes are indexed by an azimuthal number ``ell`` (any integer) and a radial
number ``p >= 0``.  A basis enumerates all (ell, p) pairs with
|ell| <= ell_max and p <= p_max; the vector ordering increments p fastest,
with ell running from -ell_max to +ell_max.  All lengths are in micrometers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FieldError",
    "QuadratureError",
    "ModeIndex",
    "ModeBasis",
    "BeamGeometry",
    "build_basis",
    "laguerre_ladder",
    "lg_radial_profile",
    "lg_amplitude",
    "transverse_inner_product",
]


class FieldError(ValueError):
    """A field is refused: ``field`` is its config key within the refusing
    object's section, ``reason`` says why."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


def _finite_number(value) -> bool:
    """Whether ``value`` is a finite int or float, as a config file's number
    reads back; a bool (which a manifest writes as true/false) is not."""
    try:
        return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(
            value, bool) and math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


class QuadratureError(RuntimeError):
    """Raised when a numerical quadrature fails to reach its tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual estimate {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True, order=True)
class ModeIndex:
    """Azimuthal/radial index pair (ell, p) of a Laguerre-Gauss mode."""

    ell: int
    p: int

    def __post_init__(self):
        if self.p < 0:
            raise ValueError(f"radial index p must be >= 0, got {self.p}")

    def label(self) -> str:
        return f"l={self.ell},p={self.p}"


@dataclass(frozen=True)
class ModeBasis:
    """Finite LG basis with the canonical vector ordering.

    The ordering runs ell = -ell_max..+ell_max, and within each ell the
    radial index p = 0..p_max, so position((ell, p)) =
    (ell + ell_max) * (p_max + 1) + p.  ``order`` lists the modes in it.
    """

    ell_max: int
    p_max: int
    order: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.ell_max < 0 or self.p_max < 0:
            raise ValueError(f"basis bounds must be >= 0, got ell_max={self.ell_max}, "
                             f"p_max={self.p_max}")
        object.__setattr__(self, "order", tuple(
            ModeIndex(ell, p) for ell in range(-self.ell_max, self.ell_max + 1)
            for p in range(self.p_max + 1)))

    @property
    def size(self) -> int:
        return len(self.order)

    def position(self, idx: ModeIndex) -> int:
        if abs(idx.ell) > self.ell_max or idx.p > self.p_max:
            raise KeyError(f"{idx} not in basis (ell_max={self.ell_max}, p_max={self.p_max})")
        return (idx.ell + self.ell_max) * (self.p_max + 1) + idx.p

    def labels(self) -> list:
        return [idx.label() for idx in self.order]

    def index_of_fundamental(self) -> int:
        return self.position(ModeIndex(0, 0))


def build_basis(ell_max: int, p_max: int) -> ModeBasis:
    """Enumerate the basis for |ell| <= ell_max, 0 <= p <= p_max."""
    return ModeBasis(ell_max, p_max)


@dataclass(frozen=True)
class BeamGeometry:
    """Gaussian-beam geometry: wavelength and waist in micrometers.

    ``focus_z`` is the axial position of the waist from the cell centre;
    mode evaluations take z relative to the focus.  A paraxial beam has
    pi w0 > lambda: its Rayleigh range ``rayleigh_zR`` = pi w0^2 / lambda
    exceeds its waist and its far-field half-angle lambda / (pi w0) is
    below 1 rad.  That, a Rayleigh range and square finite and > 0, and
    ``finite_at`` at the focus must hold, else FieldError names
    ``waist_w0``; ``finite_at`` at the cell centre must hold, else it names
    ``focus_z``.  A refused field raises FieldError naming it.
    """

    wavelength: float
    waist_w0: float
    focus_z: float = 0.0

    def __post_init__(self):
        for name in ("wavelength", "waist_w0"):
            if not (_finite_number(getattr(self, name)) and getattr(self, name) > 0):
                raise FieldError(name, f"must be finite and > 0, got {getattr(self, name)!r}")
        if not _finite_number(self.focus_z):
            raise FieldError("focus_z", f"must be finite, got {self.focus_z!r}")
        if math.pi * self.waist_w0 <= self.wavelength:
            raise FieldError("waist_w0", f"waist_w0={self.waist_w0!r} and wavelength="
                             f"{self.wavelength!r} are not paraxial: pi*w0 must exceed the "
                             "wavelength, for a far-field half-angle lambda/(pi*w0) below 1 rad")
        try:
            zR = self.rayleigh_zR
        except OverflowError:  # w0 ** 2 past the float range
            zR = math.inf
        if not (0 < zR < math.inf and 0 < zR * zR < math.inf):
            raise FieldError("waist_w0", f"waist_w0={self.waist_w0!r} and wavelength="
                             f"{self.wavelength!r} give the Rayleigh range pi*w0^2/lambda = "
                             f"{zR!r}; it and its square must be finite and > 0")
        for key, z, where in (("waist_w0", self.focus_z, "its focus"),
                              ("focus_z", 0.0, "the cell centre")):
            if not self.finite_at(z):
                raise FieldError(key, f"{getattr(self, key)!r} puts the beam's width or "
                                 f"curvature at {where} out of the finite, nonzero floats")

    @property
    def rayleigh_zR(self) -> float:
        return math.pi * self.waist_w0 ** 2 / self.wavelength

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength

    def width(self, z):
        """Beam width w(z) at axial distance z from the focus."""
        return self.waist_w0 * np.sqrt(1.0 + (z / self.rayleigh_zR) ** 2)

    def finite_at(self, z) -> bool:
        """Whether the w, 1/w^2 and z_rel^2 + zR^2 the assembly divides by are
        finite and nonzero at the cell positions ``z``; a cell's ends bound w."""
        with np.errstate(all="ignore"):
            z_rel = np.array(z, dtype=float, ndmin=1) - self.focus_z
            w = self.width(z_rel)
            values = np.concatenate([w, 1.0 / w ** 2, z_rel ** 2 + self.rayleigh_zR ** 2])
            return bool(np.all((values > 0) & (values < math.inf)))


def laguerre_ladder(alpha: int, t, p_max: int) -> np.ndarray:
    """Generalized Laguerre polynomials L_p^alpha(t) for p = 0..p_max.

    Uses the three-term recurrence of ``_laguerre_orders``, stable for the
    radial orders used here (p up to a few tens).  Returns an array of shape
    (p_max + 1,) + t.shape.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty((p_max + 1,) + t.shape, dtype=float)
    for p, laguerre in enumerate(_laguerre_orders(alpha, t, p_max)):
        out[p] = laguerre
    return out


def _laguerre_orders(alpha: int, t, p_max: int):
    """Yield L_0^alpha(t), ..., L_p_max^alpha(t) in turn, in three rotating buffers.

    The recurrence runs in place, so a yielded order is overwritten two steps
    later: a caller that keeps one copies it.  ``t`` is a float array.
    """
    cur = np.ones(t.shape)
    yield cur
    if p_max >= 1:
        # an array even for a 0-d t, so the recurrence below stays in place
        prev, cur = cur, np.subtract(1.0 + alpha, t, out=np.empty(t.shape))
        yield cur
    spare = np.empty(t.shape) if p_max >= 2 else None
    for k in range(1, p_max):
        # ((2k + 1 + alpha - t) * cur - (k + alpha) * prev) / (k + 1), operand for operand
        np.subtract(2 * k + 1 + alpha, t, out=spare)
        spare *= cur
        prev *= k + alpha
        spare -= prev
        spare /= k + 1
        prev, cur, spare = cur, spare, prev
        yield cur


@functools.lru_cache(maxsize=128)
def _leggauss(n: int):
    """Gauss-Legendre rule on [-1, 1]; shared between calls, so read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gauss_legendre(lo: float, hi: float, n: int):
    """The ``n``-node Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = _leggauss(n)
    return 0.5 * (hi - lo) * (x + 1.0) + lo, 0.5 * (hi - lo) * w


def _norm_constant(ell: int, p: int) -> float:
    # sqrt(2 p! / (pi (|ell| + p)!)), via log-gammas so large p stays finite
    return math.sqrt(2.0 / math.pi) * math.exp(
        0.5 * (math.lgamma(p + 1) - math.lgamma(abs(ell) + p + 1))
    )


def lg_radial_profile(idx: ModeIndex, r, z, geom: BeamGeometry) -> np.ndarray:
    """LG mode amplitude without the e^{i ell phi} factor.

    z is measured relative to the beam focus.  Includes the envelope, the
    curvature phase exp(-i k r^2 z / (2 (z^2 + zR^2))), the radial ring
    factor, the Laguerre polynomial and the Gouy phase
    exp(i (2p + |ell| + 1) arctan(z/zR)).  Units 1/length.
    """
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    zR = geom.rayleigh_zR
    w = geom.width(z)
    a = abs(idx.ell)
    targ = 2.0 * r ** 2 / w ** 2
    radial = (
        (_norm_constant(idx.ell, idx.p) / w)
        * np.exp(-(r / w) ** 2)
        * (np.sqrt(2.0) * r / w) ** a
        * laguerre_ladder(a, targ, idx.p)[idx.p]
    )
    gouy = (2 * idx.p + a + 1) * np.arctan2(z, zR)
    curvature = -geom.wavenumber * r ** 2 * z / (2.0 * (z ** 2 + zR ** 2))
    return radial * np.exp(1j * (gouy + curvature))


def lg_amplitude(idx: ModeIndex, r, phi, z, geom: BeamGeometry) -> np.ndarray:
    """Full LG mode amplitude u_{ell,p}(r, phi, z), z relative to the focus."""
    phi = np.asarray(phi, dtype=float)
    return lg_radial_profile(idx, r, z, geom) * np.exp(1j * idx.ell * phi)


INNER_PRODUCT_RTOL = 1e-10  # relative change between node counts at convergence


def transverse_inner_product(a: ModeIndex, b: ModeIndex, z, geom: BeamGeometry) -> complex:
    """Numerical overlap integral of u_a* u_b over a transverse plane.

    The azimuthal integral is analytic: modes with different ell are
    orthogonal exactly.  The radial integral is done by Gauss-Legendre
    quadrature on t = 2 r^2 / w(z)^2, refined until the result is stable to
    ``INNER_PRODUCT_RTOL``; equals delta_{a,b} for an orthonormal mode family.
    """
    if a.ell != b.ell:
        return 0.0 + 0.0j
    w = float(geom.width(z))
    t_max = 4.0 * (a.p + b.p) + 2.0 * abs(a.ell) + 45.0

    def evaluate(n_nodes: int) -> complex:
        t, wt = _gauss_legendre(0.0, t_max, n_nodes)
        r = w * np.sqrt(t / 2.0)
        # curvature phases cancel between u_a* and u_b at equal geometry,
        # so only the Gouy difference and the real radial integrand remain
        pa = np.conj(lg_radial_profile(a, r, z, geom))
        pb = lg_radial_profile(b, r, z, geom)
        measure = 2.0 * math.pi * w ** 2 / 4.0
        return measure * np.sum(wt * pa * pb)

    prev = evaluate(64)
    for n_nodes in (128, 256, 512):
        cur = evaluate(n_nodes)
        residual = abs(cur - prev) / max(1.0, abs(cur))
        if residual <= INNER_PRODUCT_RTOL:
            return complex(cur)
        prev = cur
    raise QuadratureError("transverse inner product did not converge", residual)
