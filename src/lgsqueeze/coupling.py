"""Assembly of the multimode squeezing matrix from 3-D mode-overlap integrals.

Each matrix element is the overlap of the (classical) pump-mode product with
the conjugated signal and idler mode functions, integrated over a uniform
nonlinear medium of finite length.  The azimuthal integral is analytic and
enforces OAM conservation exactly; the radial and longitudinal integrals are
done by fixed-node Gauss-Legendre quadrature, refined deterministically until
converged.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
import os
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .modes import (
    BeamGeometry,
    FieldError,
    ModeBasis,
    ModeIndex,
    _finite_number,
    laguerre_ladder,  # unused here; perfbench/tracing.py wraps it under this name
    _gauss_legendre,
    _laguerre_orders,
    _norm_constant,
)

__all__ = [
    "FieldError",
    "InteractionType",
    "PumpSpec",
    "CouplingConfig",
    "SqueezeMatrix",
    "coupling_element",
    "drive_modes",
    "oam_feeds",
    "assemble_squeeze_matrix",
    "scale_to_mean_photons",
    "ASSEMBLY_BYTES_LIMIT",
    "check_basis_size",
    "pump_profile_count",
]

QUADRATURE_RTOL = 1e-8  # relative change of xi between quadrature levels at convergence
PHOTON_RTOL = 1e-10  # relative photon-number error the calibration meets


class InteractionType(enum.Enum):
    """Mode-coupling topology of the nonlinear interaction.

    DEGENERATE_SINGLE_BEAM
        Signal and idler occupy one beam with no transverse-mode cross
        talk: photon pairs always land in the same (ell, p) mode, so the
        matrix is restricted to its diagonal.
    P_CROSSTALK_ONLY
        Two-beam machinery with the restriction ell_signal == ell_idler;
        combined with a Gaussian pump this permits radial (p) cross talk
        only within ell = 0.
    FULL_CROSSTALK
        No restriction beyond OAM conservation from the azimuthal
        integral.
    """

    DEGENERATE_SINGLE_BEAM = "DegenerateSingleBeam"
    P_CROSSTALK_ONLY = "PCrosstalkOnly"
    FULL_CROSSTALK = "FullCrosstalk"


@dataclass(frozen=True)
class PumpSpec:
    """Classical pump beam: geometry plus unit-norm mode coefficients.

    ``coefficients`` is a vector of numbers over the coupling basis (not
    bools), of unit norm to 1e-12; None means the pure (0, 0) Gaussian mode.
    """

    geometry: BeamGeometry
    coefficients: np.ndarray = None

    def __post_init__(self):
        if self.coefficients is not None:
            try:
                numeric = np.asarray(self.coefficients).dtype.kind in "iufc"
            except ValueError:  # a ragged nested list
                numeric = False
            if not numeric:
                raise FieldError("coefficients", f"must be numbers, got {self.coefficients!r}")
            object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=complex))
            norm = float(np.linalg.norm(self.coefficients))
            if not abs(norm - 1.0) <= 1e-12:
                raise FieldError("coefficients", f"must have unit norm, got {norm!r}")

    def resolved_coefficients(self, basis: ModeBasis) -> np.ndarray:
        if self.coefficients is None:
            coeff = np.zeros(basis.size, dtype=complex)
            coeff[basis.index_of_fundamental()] = 1.0
            return coeff
        return self.coefficients


@dataclass(frozen=True)
class CouplingConfig:
    """Everything needed to assemble a squeezing matrix.

    A bool ``single_pump`` selects a three-wave interaction (one pump photon
    per signal/idler pair, as in down-conversion): one drive field enters the
    overlap, and a ``pump2`` raises FieldError.  Otherwise two drive fields
    enter, and a ``pump2`` of None means ``pump1`` again (degenerate-pump
    four-wave mixing).  A drive's coefficients hold one entry per basis mode.
    The medium is a uniform cell of ``cell_length``, a finite number > 0,
    centred at z = 0, where each beam's ``focus_z`` is measured from.  At both
    cell ends every beam's width w, its 1/w^2 and the z^2 + zR^2 of its
    curvature phase stay finite and nonzero, else a FieldError names
    ``cell_length``, and its reason the first beam of ``_beam_keys`` that
    fails, with its waist; each BeamGeometry checks its own at the centre.
    """

    interaction: InteractionType
    cell_length: float
    pump1: PumpSpec
    collection: BeamGeometry
    basis: ModeBasis
    pump2: PumpSpec = None
    single_pump: bool = False

    def __post_init__(self):
        if not isinstance(self.interaction, InteractionType):
            names = ", ".join(kind.value for kind in InteractionType)
            raise FieldError("interaction", f"must be an InteractionType (in a config file, one "
                             f"of {names}), got {self.interaction!r}")
        if not (_finite_number(self.cell_length) and self.cell_length > 0):
            raise FieldError("cell_length", f"must be finite and > 0, got {self.cell_length!r}")
        if not isinstance(self.single_pump, (bool, np.bool_)):
            raise FieldError("single_pump", f"must be true or false, got {self.single_pump!r}")
        if self.single_pump and self.pump2 is not None:
            raise FieldError("pump2", "is not used: a single_pump coupling has one drive field")
        for key, pump in (("pump", self.pump1), ("pump2", self.pump2)):
            coefficients = getattr(pump, "coefficients", None)  # pump2 may be None
            if coefficients is not None and np.shape(coefficients) != (self.basis.size,):
                raise FieldError(f"{key}.coefficients", f"has shape {np.shape(coefficients)}, "
                                 f"not one entry per mode of the {self.basis.size}-mode basis")
        half = 0.5 * self.cell_length
        for key, geom in _beam_keys(self, "waist_w0"):
            if not geom.finite_at([-half, half]):
                raise FieldError("cell_length", f"{self.cell_length!r} puts the width or "
                                 f"curvature at a cell end of the beam of {key}, a waist of "
                                 f"{geom.waist_w0!r} um, out of the finite, nonzero floats")

    @property
    def drives(self) -> tuple:
        """The drive fields of the overlap: (pump1,) or (pump1, pump2 or pump1)."""
        return (self.pump1,) if self.single_pump else (self.pump1, self.pump2 or self.pump1)


@dataclass
class SqueezeMatrix:
    """Complex squeezing matrix, checked square and finite on construction.

    Rows are signal modes, columns idler modes, both ordered per the basis.
    It holds no factors: ``squeeze_core``'s statistics factor ``xi`` when they
    run, so a matrix that is only rescaled is never factored.
    """

    xi: np.ndarray
    basis: ModeBasis
    interaction: InteractionType

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=complex)
        if self.xi.ndim != 2 or self.xi.shape[0] != self.xi.shape[1]:
            raise ValueError(f"xi must be square, got shape {self.xi.shape}")
        if self.basis is not None and self.basis.size != self.xi.shape[0]:
            raise ValueError("basis size does not match matrix dimension")
        if not np.all(np.isfinite(self.xi)):
            raise ValueError("xi must be finite")

    @property
    def size(self) -> int:
        return self.xi.shape[0]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# the work, in array elements, of each run of _contract's split: starting and
# joining a worker took about 0.11 ms on a 2-core VM, so a WaistScan cell's
# 3 x 3-row overlaps stay whole; PdcHeralding's 21 x 21-row overlaps ran as
# fast split into runs of 2^16 to 2^22 elements, and slower whole
_RUN_WORK = 2 ** 18


def _contract(pump, left, right):
    """``np.einsum("zt,pzt,qzt->pq", pump, left, right)``, in runs of its signal rows.

    There is one run per ``_RUN_WORK`` elements of work, counting every idler
    row, but at most one per usable CPU and one per signal row, and at least
    one; so a small overlap is one call on the calling thread.  This thread
    contracts the first run and worker threads the others, which overlap
    because einsum releases the GIL.  Each output row comes from the same
    einsum inner loop on the same operands, so the result is bit-identical
    to one call whatever the CPU count, and no run or worker thread outlives
    the call.
    """
    spec, n = "zt,pzt,qzt->pq", len(left)
    runs = max(1, min(_usable_cpus(), n, n * pump.size * len(right) // _RUN_WORK))
    if runs == 1:
        return np.einsum(spec, pump, left, right)
    import concurrent.futures

    cuts = [n * i // runs for i in range(runs + 1)]
    with concurrent.futures.ThreadPoolExecutor(runs - 1, thread_name_prefix="lgsqueeze") as pool:
        rest = [pool.submit(np.einsum, spec, pump, left[lo:hi], right)
                for lo, hi in zip(cuts[1:-1], cuts[2:])]
        first = np.einsum(spec, pump, left[:cuts[1]], right)
    return np.concatenate([first] + [job.result() for job in rest])


def _beam_on_grid(r, z_rel, geom: BeamGeometry):
    """The mode-independent factors of a beam's profiles on the (z, t) grid.

    ``r`` has shape (nz, nt) and ``z_rel`` shape (nz,).  Returns the width,
    the Laguerre argument 2 r^2 / w^2, the Gouy angle and the envelope times
    the curvature phase, for ``_profiles_on_grid``.
    """
    z_rel = np.asarray(z_rel, dtype=float)
    zR = geom.rayleigh_zR
    w = geom.width(z_rel)[:, None]
    targ = 2.0 * r ** 2 / w ** 2
    envelope = np.exp(-(r / w) ** 2)
    curvature = -geom.wavenumber * r ** 2 * (z_rel / (2.0 * (z_rel ** 2 + zR ** 2)))[:, None]
    psi = np.arctan2(z_rel, zR)[:, None]
    return w, targ, psi, envelope * np.exp(1j * curvature)


def _profiles_on_grid(entries, r, beam):
    """Azimuthally-reduced profiles for a set of (ell, p) entries.

    ``beam`` is ``_beam_on_grid`` on the grid ``r``, so a beam whose profiles
    are built in several calls computes its shared factors once.  The
    entries of one |ell| share one Laguerre recurrence over the whole grid,
    on the calling thread, which fills each row of order p as L_p comes out,
    in the operand order (c/w)*base*ring*L_p*gouy; so it holds two orders,
    never the ladder.  Returns a complex array of shape (len(entries), nz, nt).
    """
    w, targ, psi, base = beam
    out = np.empty((len(entries),) + r.shape, dtype=complex)
    by_alpha = {}
    for pos, idx in enumerate(entries):
        by_alpha.setdefault(abs(idx.ell), []).append((pos, idx))
    for alpha, group in by_alpha.items():
        ring = (np.sqrt(2.0) * r / w) ** alpha if alpha else 1.0
        # radial order -> the out rows of that order, with their norm constants
        by_p = {}
        for pos, idx in group:
            by_p.setdefault(idx.p, []).append((out[pos], _norm_constant(idx.ell, idx.p)))
        for p, laguerre in enumerate(_laguerre_orders(alpha, targ, max(by_p))):
            for row, c in by_p.get(p, ()):
                np.multiply(c / w, base, out=row)
                row *= ring
                row *= laguerre
                row *= np.exp(1j * (2 * p + alpha + 1) * psi)
    return out


def drive_modes(cfg: CouplingConfig) -> list:
    """``[(nonzero coefficients, their modes), ...]``, one entry per drive of
    ``cfg.drives``: the one place a drive's nonzero modes are worked out."""
    entries = []
    for drive in cfg.drives:
        coeff = drive.resolved_coefficients(cfg.basis)
        support = np.flatnonzero(coeff)
        entries.append((coeff[support], [cfg.basis.order[i] for i in support]))
    return entries


def oam_feeds(drives: list, basis: ModeBasis, interaction: InteractionType) -> dict:
    """Each net OAM of ``drive_modes`` (one ell per drive), in increasing order,
    -> the ``range`` of ell_s whose blocks (ell_s, net - ell_s) of xi it feeds."""
    nets = {0}
    for _, modes in drives:  # the distinct ells, so no drive-index tuple is listed
        nets = {net + ell for net in nets for ell in {m.ell for m in modes}}
    top = basis.ell_max
    if interaction is InteractionType.FULL_CROSSTALK:
        return {net: range(max(-top, net - top), min(top, net + top) + 1) for net in sorted(nets)}
    # a same-ell block pairs signal and idler of ell_s = net / 2
    return {net: range(net // 2, net // 2 + (net % 2 == 0 and abs(net) <= 2 * top))
            for net in sorted(nets)}


_T_MAX_MIN = 45.0  # the radial cutoff search starts here


def _levels(gouy_swing: float, t_max: float, roots: int):
    """The (nz, nt) refinement ladder; every node count grows with its inputs."""
    # z resolution follows the total Gouy phase swing over the cell
    nz0 = max(48, int(1.4 * gouy_swing) + 32)
    # t-node count resolves the Laguerre roots and the curvature-phase beats
    nt0 = max(96, int(0.55 * t_max) + 6 * roots + 32)
    return [(nz0, nt0), (2 * nz0, 2 * nt0), (4 * nz0, 4 * nt0)]


def _node_schedule(cfg: CouplingConfig):
    """Deterministic (nz, nt, T_max) refinement ladder for this config.

    The radial cutoff T_max is a log-magnitude budget: the shared envelope
    decays as e^{-t} while each field's Laguerre polynomial can grow only
    like (gamma_b t)^{p_b} within the integration range, so we take the
    first t where the combined bound drops forty decades below unity.
    """
    basis = cfg.basis
    half = 0.5 * cfg.cell_length
    z_probe = np.linspace(-half, half, 33)

    fields = [(d.geometry, max(m.p for m in modes), max(abs(m.ell) for m in modes))
              for d, (_, modes) in zip(cfg.drives, drive_modes(cfg))]
    fields += [(cfg.collection, basis.p_max, basis.ell_max)] * 2

    gouy_swing = sum(
        (2 * p + ell + 1)
        * math.atan((half + abs(g.focus_z)) / g.rayleigh_zR)
        for g, p, ell in fields
    )

    beta = sum(1.0 / g.width(z_probe - g.focus_z) ** 2 for g, _, _ in fields)
    gammas = [
        (float(np.max(1.0 / g.width(z_probe - g.focus_z) ** 2 / beta)), p, ell)
        for g, p, ell in fields
    ]

    def log_bound(t):
        val = -t
        for gamma, p, ell in gammas:
            val += (p + 0.5 * ell) * math.log1p(2.0 * gamma * t)
        return val

    t_max = _T_MAX_MIN
    while log_bound(t_max) > -42.0 and t_max < 4000.0:
        t_max += 5.0
    return _levels(gouy_swing, t_max, sum(p for _, p, _ in gammas)), t_max


# largest assembly floor (_assembly_floor_bytes) a basis may have
ASSEMBLY_BYTES_LIMIT = 2 ** 30


def _assembly_floor_bytes(ell_max: int, p_max: int, pump_profiles: int) -> int:
    """Fewest bytes the assembly of an (ell_max, p_max) basis holds at once.

    That is xi plus the two conjugated |ell| stacks one overlap reads, and
    ``pump_profiles`` pump profiles, on the fewest nodes the finest level of
    ``_node_schedule`` can have: no Gouy swing, the smallest radial cutoff
    and only the two collection fields' radial orders.  It needs no mode
    list.  Beside these the assembly holds seven to eight grid-sized complex
    arrays' worth of working arrays, whatever the basis: the grid and its
    measure, the collection beam's factors, a ring factor, the pump product
    and the Laguerre recurrence's two orders and temporaries
    (``TestStreamedAssembly`` names each).  The floor leaves them out, so it
    stays a floor; no array grows with p_max beyond the stacks.
    """
    n_p = p_max + 1
    n = (2 * ell_max + 1) * n_p
    nz, nt = _levels(0.0, _T_MAX_MIN, 2 * p_max)[-1]
    return 16 * (n * n + (2 * n_p + pump_profiles) * nz * nt)


def pump_profile_count(cfg: CouplingConfig) -> int:
    """Pump profiles the assembly of ``cfg`` holds: one per nonzero coefficient
    of each drive, where a ``pump2`` of None shares the profiles of ``pump1``."""
    drives = drive_modes(cfg)
    return sum(len(modes) for _, modes in (drives[:1] if cfg.pump2 is None else drives))


def check_basis_size(ell_max: int, p_max: int, pump_profiles: int) -> None:
    """Refuse a basis over ASSEMBLY_BYTES_LIMIT before any mode is listed.

    ``pump_profiles`` is ``pump_profile_count`` of the coupling, one for a
    Gaussian pump.  The FieldError names ``basis.p_max`` when the radial bound
    alone is over the limit, with at most one pump profile per mode, else
    ``basis.ell_max``.
    """
    need = _assembly_floor_bytes(ell_max, p_max, pump_profiles)
    if need <= ASSEMBLY_BYTES_LIMIT:
        return
    from decimal import Decimal  # exact for an int of any size, where float overflows

    alone = _assembly_floor_bytes(0, p_max, min(pump_profiles, p_max + 1))
    raise FieldError(
        "basis.p_max" if alone > ASSEMBLY_BYTES_LIMIT else "basis.ell_max",
        f"basis ell_max={ell_max}, p_max={p_max} is too large: its assembly needs at least "
        f"{Decimal(need) / 2 ** 30:.3g} GiB, "
        f"above the {ASSEMBLY_BYTES_LIMIT // 2 ** 30} GiB limit",
    )


def _assemble_at(cfg: CouplingConfig, nz: int, nt: int, t_max: float):
    """One fixed-grid evaluation of the coupling matrix (no gain factors)."""
    basis = cfg.basis
    # integrate z through the Gouy angle of the fastest-diverging beam;
    # tan substitution compresses the Lorentzian envelope tails of long cells
    geoms = [d.geometry for d in cfg.drives]
    gc = cfg.collection
    z_scale = min(g.rayleigh_zR for g in geoms + [gc])
    psi_half = math.atan(0.5 * cfg.cell_length / z_scale)
    psi, wpsi = _gauss_legendre(-psi_half, psi_half, nz)
    z = z_scale * np.tan(psi)
    wz = wpsi * z_scale / np.cos(psi) ** 2
    t, wt = _gauss_legendre(0.0, t_max, nt)

    g1 = geoms[0]
    beta = 1.0 / g1.width(z - g1.focus_z) ** 2 + 2.0 / gc.width(z - gc.focus_z) ** 2
    for g in geoms[1:]:
        beta = beta + 1.0 / g.width(z - g.focus_z) ** 2
    r = np.sqrt(t[None, :] / beta[:, None])
    # measure: dz * 2*pi*r dr, with r dr = dt / (2 beta)
    measure = wz[:, None] * wt[None, :] * (math.pi / beta[:, None])

    drives = drive_modes(cfg)
    profiles = []  # per drive; a pump2 of None shares pump1's
    for drive, (_, modes) in zip(cfg.drives, drives):
        g = drive.geometry
        profiles.append(profiles[0] if profiles and cfg.pump2 is None else
                        _profiles_on_grid(modes, r, _beam_on_grid(r, z - g.focus_z, g)))
    # a reduced profile depends on |ell| only: one conjugated stack per |ell|
    # serves both signs, and each overlap is contracted once per drive-index
    # tuple and (|ell_s|, |ell_i|)
    n_p = basis.p_max + 1
    collection = _beam_on_grid(r, z - gc.focus_z, gc)

    def collection_stack(alpha):
        stack = _profiles_on_grid([ModeIndex(alpha, p) for p in range(n_p)], r, collection)
        return np.conj(stack, out=stack)

    diag_only = cfg.interaction is InteractionType.DEGENERATE_SINGLE_BEAM
    fed = oam_feeds(drives, basis, cfg.interaction)
    # (|ell_s|, |ell_i|) -> drive-index tuple -> the (ell_s, ell_i) blocks it
    # feeds; tuples keep their product order, so every block sums its terms
    # in one fixed order
    feeds = {}
    for combo in itertools.product(*(range(len(modes)) for _, modes in drives)):
        ell_net = sum(modes[a].ell for (_, modes), a in zip(drives, combo))
        for ell_s in fed[ell_net]:
            ell_i = ell_net - ell_s
            key = (abs(ell_s), abs(ell_i))
            feeds.setdefault(key, {}).setdefault(combo, []).append((ell_s, ell_i))

    xi = np.zeros((basis.size, basis.size), dtype=complex)
    stacks = {}
    # sweep the overlaps by their larger |ell|; building a stack drops the
    # ones this overlap does not read, so at most two are alive at a time.
    # When no drive-index tuple carries net OAM every overlap reads one stack
    # and each is built once; otherwise a dropped stack a later overlap reads
    # is rebuilt.  A stack is built on the calling thread.  An off-diagonal
    # overlap is contracted in runs of its signal rows (``_contract``, the
    # program's one thread split), one per usable CPU once the overlap is
    # large enough to pay for the hand-off, on views of the stacks it reads,
    # so the threads add no stack and xi is the same bit for bit at any CPU
    # count.  A single-beam coupling's diagonal overlap is one einsum call on
    # the calling thread.
    for key in sorted(feeds, key=lambda k: (max(k), min(k), k)):
        for alpha in key:
            if alpha not in stacks:
                stacks = {a: s for a, s in stacks.items() if a in key}
                stacks[alpha] = collection_stack(alpha)
        for combo, blocks in feeds[key].items():
            # in the operand order ((c1 c2) measure) prof1 prof2
            pump = reduce(operator.mul, [c[a] for (c, _), a in zip(drives, combo)]) * measure
            for prof, a in zip(profiles, combo):
                pump *= prof[a]
            if diag_only:
                overlap = np.einsum("zt,pzt,pzt->p", pump, stacks[key[0]], stacks[key[1]])
            else:
                overlap = _contract(pump, stacks[key[0]], stacks[key[1]])
            for ell_s, ell_i in blocks:
                row, col = (basis.position(ModeIndex(ell, 0)) for ell in (ell_s, ell_i))
                if diag_only:
                    rows = np.arange(row, row + n_p)
                    xi[rows, rows] += overlap
                else:
                    xi[row:row + n_p, col:col + n_p] += overlap
    return xi


def _beam_keys(cfg: CouplingConfig, field: str) -> list:
    """``[(config key, geometry), ...]`` of each beam of ``cfg``, in the order
    collection, pump, pump2: the collection's key names its ``field``, and a
    pump's its section, which sets a geometry field bare or under ``geometry``."""
    beams = [(f"coupling.collection.{field}", cfg.collection),
             ("coupling.pump", cfg.pump1.geometry)]
    if cfg.pump2 is not None:
        beams.append(("coupling.pump2", cfg.pump2.geometry))
    return beams


def _assemble_raw(cfg: CouplingConfig):
    """Refine the quadrature grid until the matrix is stable to ``QUADRATURE_RTOL``.

    Numpy's floating-point warnings are off on this thread.  A matrix norm
    past the float range at any level, or a miss at the finest, raises one
    FieldError naming the beam of ``_beam_keys`` with the smallest waist (the
    largest 1/w normalisation) or, for a miss, the smallest Rayleigh range,
    whose Gouy angle the z rule of ``_assemble_at`` follows; a tie names the
    first of them.
    """
    with np.errstate(all="ignore"):  # a sum of 1/w^2 or the norm's squares may overflow
        schedule, t_max = _node_schedule(cfg)
        prev, residual = None, math.inf
        for nz, nt in schedule:
            cur = _assemble_at(cfg, nz, nt, t_max)
            norm = float(np.linalg.norm(cur))
            if not math.isfinite(norm):
                break
            if prev is not None:
                residual = float(np.linalg.norm(cur - prev)) / max(norm, 1e-300)
                if residual <= QUADRATURE_RTOL:
                    return cur
            prev = cur
    beams = _beam_keys(cfg, "waist_w0")
    if math.isfinite(norm):
        key, geom = min(beams, key=lambda beam: beam[1].rayleigh_zR)
        reason = (f"gives the coupling's shortest Rayleigh range, {geom.rayleigh_zR:.4g} um, "
                  f"which the quadrature cannot resolve over the {cfg.cell_length!r} um cell "
                  f"(residual estimate {residual:.3e} after {nz} x {nt} nodes)")
    else:
        key, geom = min(beams, key=lambda beam: beam[1].waist_w0)
        reason = (f"is the coupling's narrowest, and takes its matrix past the float range "
                  f"on {nz} x {nt} quadrature nodes")
    raise FieldError(key, f"a waist of {geom.waist_w0!r} um {reason}")


def coupling_element(signal: ModeIndex, idler: ModeIndex, cfg: CouplingConfig) -> complex:
    """Single element of the coupling matrix for (signal, idler).

    Read off the assembled matrix, refined to ``QUADRATURE_RTOL`` as a whole.  An
    element outside the blocks ``oam_feeds`` maps the drives' net OAM to is
    exactly 0.0 there, because the assembly adds only to those blocks.
    """
    s, i = cfg.basis.position(signal), cfg.basis.position(idler)
    return complex(assemble_squeeze_matrix(cfg).xi[s, i])


def assemble_squeeze_matrix(cfg: CouplingConfig) -> SqueezeMatrix:
    """Assemble the full squeezing matrix for ``cfg``.

    Rows index the signal mode, columns the idler mode, both in the basis
    order.  It is the quadrature's overlap as it stands: a run scales it
    only by its gain, calibrated or seeded.  For the degenerate interaction
    it is diagonal, and so symmetric.
    """
    return SqueezeMatrix(xi=_assemble_raw(cfg), basis=cfg.basis, interaction=cfg.interaction)


def mean_photons_of_scale(singular_values: np.ndarray, s: float) -> float:
    """Total mean photon number per beam for the matrix scaled by ``s``."""
    with np.errstate(over="ignore"):
        return float(np.sum(np.sinh(s * singular_values) ** 2))


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int) -> float:
    """Root of ``f`` in the sign-changing bracket [xa, xb] by Brent's method.

    A line-for-line transcription of ``optimize/Zeros/brentq.c`` from SciPy
    (written by Charles Harris; SciPy is Copyright (c) SciPy Developers and
    distributed under the BSD-3-Clause license), with the checks of SciPy's
    Python ``brentq`` wrapper: a NaN function value raises ValueError, and
    signs are compared with ``copysign`` as the C code compares them with
    ``signbit``.  For the same arguments it returns the same root as SciPy's
    ``brentq`` to the bit, without importing SciPy's optimize package.
    """

    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    def signbit(x):
        return math.copysign(1.0, x) < 0.0

    def div(a, b):  # a / b as in C, where a zero divisor gives +-inf or nan
        if b != 0:
            return a / b
        if a != a or a == 0:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if signbit(fpre) == signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and signbit(fpre) != signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre

            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = div(-fcur * (xcur - xpre), fcur - fpre)
            else:
                # extrapolate
                dpre = div(fpre - fcur, xpre - xcur)
                dblk = div(fblk - fcur, xblk - xcur)
                stry = div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}")


def scale_to_mean_photons(sq: SqueezeMatrix, n_target: float):
    """Rescale a squeezing matrix so the mean photon number equals ``n_target``.

    Solves sum_i sinh^2(s sigma_i) = n_target for the positive scalar s on
    the singular values sigma_i; the map is strictly increasing in s.  Brent's
    method on [0, hi] finds s, and up to four Newton steps polish it until
    the photon number is within ``PHOTON_RTOL * n_target`` of the target.
    Brent's absolute step bound can end at s = 0 for a target far below one
    photon; the polish then starts from s0 = sqrt(n_target / sum sigma_i^2),
    which bounds the root from above because sinh^2 x >= x^2.  Raises
    FieldError naming ``n_target`` when the target is not finite and > 0,
    no finite s brackets the root or the target is not reached.
    """
    if not 0 < n_target < math.inf:
        raise FieldError("n_target", f"must be finite and > 0, got {n_target!r}")
    sigma = np.linalg.svd(sq.xi, compute_uv=False)
    total = float(np.sum(sigma))
    if total == 0.0:
        raise ValueError("cannot scale a zero matrix to a positive photon number")

    def excess(s):
        return mean_photons_of_scale(sigma, s) - n_target

    lo = 0.0
    hi = max(1.0, math.asinh(math.sqrt(n_target)) / float(np.max(sigma)))
    while hi < math.inf and excess(hi) < 0.0:
        hi *= 2.0
    if hi == math.inf:
        raise FieldError("n_target", f"no finite scale of the matrix reaches {n_target!r}; "
                         f"its largest singular value is {float(np.max(sigma))!r}")
    s = _brentq(excess, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    if s == 0.0:
        s = math.sqrt(n_target) / float(np.linalg.norm(sigma))
    # polish with Newton steps; the derivative is sum sinh(2 s sigma) sigma
    tol = PHOTON_RTOL * n_target
    for _ in range(4):
        err = excess(s)
        if abs(err) <= tol:
            break
        deriv = float(np.sum(np.sinh(2.0 * s * sigma) * sigma))
        s -= err / deriv
    if abs(excess(s)) > tol:
        raise FieldError("n_target", f"the photon number of the rescaled matrix did not "
                         f"reach {tol:.3g} of {n_target!r}")
    return replace(sq, xi=s * sq.xi), float(s)
