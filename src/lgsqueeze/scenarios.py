"""Named simulation scenarios: PSR, FWM, PDC, waist scan and heralding.

``_SCENARIOS`` is the one place a scenario's facts live (runner, stock
coupling and basis, re-run, scan grid, pump rule and calibration baseline);
nothing else in this module compares scenario names or runners.

The PSR/FWM family shares one geometry (795 nm pump, 80 um waist, cell three
Rayleigh ranges long, all foci at the cell centre) and one calibration
protocol: the gain is fixed once so the no-crosstalk baseline carries one
photon per beam on average, then reused unchanged for the crosstalk
variants, making the photon-number ratios the observable.

The PDC family down-converts a 405 nm pump into 810 nm signal/idler pairs
collected at an independent waist; every run is rescaled to one photon on
average so the statistics isolate how the coupling structure redistributes a
fixed photon budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .coupling import (
    ASSEMBLY_BYTES_LIMIT,
    CouplingConfig,
    InteractionType,
    PumpSpec,
    SqueezeMatrix,
    _beam_keys,
    assemble_squeeze_matrix,
    check_basis_size,
    drive_modes,
    oam_feeds,
    pump_profile_count,
    scale_to_mean_photons,
)
from .eigenmodes import (EigenDecomposition, decompose, eigenmode_pump, eigenmode_report,
                         is_normal)
from .modes import BeamGeometry, FieldError, ModeBasis, _finite_number, build_basis
from .squeeze_core import StateReport, state_report

__all__ = [
    "SCENARIO_NAMES",
    "FieldError",
    "ScenarioConfig",
    "ScenarioResult",
    "coupling_on_basis",
    "default_config",
    "scenario_basis",
    "run_scenario",
    "pair_dominance_metrics",
    "scan_island",
]

PSR_WAVELENGTH = 0.795  # um
PSR_WAIST = 80.0  # um
PDC_PUMP_WAVELENGTH = 0.405
PDC_COLLECTION_WAVELENGTH = 0.810
PDC_PUMP_WAIST = 200.0
PDC_COLLECTION_WAIST = 200.0
PDC_HERALDING_PUMP_WAIST = 400.0
# The down-conversion cell length is fixed in absolute units (it does not
# follow the waists during scans); expressed here as a multiple of the
# 810 nm collection Rayleigh range at the 200 um benchmark waist.  The value
# 0.6 (about 93 mm) reproduces the benchmark noise figures: fundamental-mode
# variance ~0.32, leading-eigenmode variance ~0.25 of vacuum, and a
# >1 dB eigenmode-pumping gain at fixed mean photon number.
PDC_CELL_RAYLEIGHS = 0.6
HERALDING_P_MAX = 20
DEFAULT_GRID_RANGE = (50.0, 800.0)
DEFAULT_GRID_POINTS = 8
_GRID_KEYS = ("pump", "collection", "points")


def _psr_coupling(interaction: InteractionType, basis) -> CouplingConfig:
    beam = BeamGeometry(wavelength=PSR_WAVELENGTH, waist_w0=PSR_WAIST)
    return CouplingConfig(interaction, 3.0 * beam.rayleigh_zR, PumpSpec(beam), beam, basis)


def _pdc_coupling(pump_waist: float, basis) -> CouplingConfig:
    # down-conversion consumes one pump photon per pair: three-wave kernel
    beam = BeamGeometry(wavelength=PDC_COLLECTION_WAVELENGTH, waist_w0=PDC_COLLECTION_WAIST)
    pump = BeamGeometry(wavelength=PDC_PUMP_WAVELENGTH, waist_w0=pump_waist)
    return CouplingConfig(InteractionType.FULL_CROSSTALK, PDC_CELL_RAYLEIGHS * beam.rayleigh_zR,
                          PumpSpec(pump), beam, basis, single_pump=True)


@dataclass(frozen=True)
class _Scenario:
    """What sets one named scenario apart from the others."""

    run: Callable  # ScenarioConfig -> ScenarioResult
    coupling: Callable  # basis -> the stock CouplingConfig
    p_max: int = 2  # the stock radial bound
    rerun: bool = False  # convergence_check re-runs it at a larger basis
    scan: bool = False  # it takes a scan grid, and so no seed_gain
    pump: str = "config"  # or its own "gaussian" or "eigenmode" pump (a profile per mode)
    baseline: InteractionType = None  # the interaction whose calibrated gain the run takes


def _scenario(name) -> _Scenario:
    """The record of ``name``, or a FieldError naming ``name``."""
    if name not in SCENARIO_NAMES:  # a tuple test, so an unhashable name is refused too
        raise FieldError("name", f"unknown scenario {name!r}; choose from "
                         + ", ".join(SCENARIO_NAMES))
    return _SCENARIOS[name]


@dataclass(frozen=True)
class ScenarioConfig:
    """A named scenario with its fully-resolved coupling configuration.

    Construction, ``dataclasses.replace`` included, is the one place the
    scenario's rules are checked; a refused field raises FieldError naming
    it, and a rule on the coupling names its config key.
    """

    name: str
    coupling: CouplingConfig
    n_target: float = 1.0  # left at 1.0 when seed_gain is set
    scan_grid: dict = None  # WaistScan only: "pump" and "collection" ranges, "points"
    seed_gain: float = None  # overrides the calibration protocol when set
    convergence_check: bool = None  # None: on exactly where a re-run exists

    def __post_init__(self):
        scenario = _scenario(self.name)
        if self.convergence_check is None:
            object.__setattr__(self, "convergence_check", scenario.rerun)
        elif not isinstance(self.convergence_check, (bool, np.bool_)):
            raise FieldError("convergence_check",
                             f"must be true or false, got {self.convergence_check!r}")
        elif self.convergence_check and not scenario.rerun:
            raise FieldError("convergence_check", f"must be false: {self.name} has no re-run")
        if not (_finite_number(self.n_target) and self.n_target > 0):
            raise FieldError("n_target", f"must be a finite number > 0, got {self.n_target!r}")
        if self.seed_gain is not None and not _finite_number(self.seed_gain):
            raise FieldError("seed_gain", f"must be a finite number, got {self.seed_gain!r}")
        if self.seed_gain is not None and scenario.scan:
            raise FieldError("seed_gain", f"is not used: {self.name} calibrates every cell")
        if self.seed_gain is not None and self.n_target != 1.0:
            raise FieldError("n_target", "is not used: seed_gain sets the gain")
        if (self.scan_grid is None) == scenario.scan:
            scans = ", ".join(name for name, s in _SCENARIOS.items() if s.scan)
            raise FieldError("scan_grid", f"is needed by {scans} and taken by no other scenario")
        if self.scan_grid is not None:
            for key in [*_GRID_KEYS, *self.scan_grid]:  # a missing key, then an unknown one
                if (key in _GRID_KEYS) != (key in self.scan_grid):
                    raise FieldError(f"scan_grid.{key}",
                                     "is missing" if key in _GRID_KEYS else "unknown key")
            for axis in ("pump", "collection"):
                bounds = self.scan_grid[axis]
                if not (isinstance(bounds, (list, tuple, np.ndarray)) and len(bounds) == 2
                        and all(map(_finite_number, bounds)) and 0 < bounds[0] < bounds[1]):
                    raise FieldError(f"scan_grid.{axis}", "must be [low, high], two finite "
                                     f"numbers with 0 < low < high, got {bounds!r}")
                for waist in bounds:  # the waists between take the beam's rules from these
                    try:
                        _at_waist(self.coupling, axis, waist)
                    except FieldError as exc:
                        raise FieldError(f"scan_grid.{axis}", f"{waist!r}: {exc.reason}") from None
            points = self.scan_grid["points"]
            if not isinstance(points, (int, np.integer)) or points < 2:
                raise FieldError("scan_grid.points", f"must be an integer >= 2, got {points!r}")
            if 8 * points * points > ASSEMBLY_BYTES_LIMIT:  # the float64 metric grid
                raise FieldError("scan_grid.points",
                                 f"must be <= {math.isqrt(ASSEMBLY_BYTES_LIMIT // 8)}, got "
                                 f"{points}: its points x points metric grid is over the "
                                 f"{ASSEMBLY_BYTES_LIMIT // 2 ** 30} GiB limit")
        coupling, basis = self.coupling, self.coupling.basis
        if scenario.pump != "config":
            for key, pump in (("pump", coupling.pump1), ("pump2", coupling.pump2)):
                if getattr(pump, "coefficients", None) is not None:
                    raise FieldError(f"coupling.{key}.coefficients",
                                     f"is not used: {self.name} sets its own pump modes")
        profiles = basis.size if scenario.pump == "eigenmode" else pump_profile_count(coupling)
        check_basis_size(basis.ell_max, basis.p_max, profiles)
        # every coupling the run analyses, its baseline too, must feed a block, else xi is zero
        drives = drive_modes(coupling)
        for interaction in filter(None, (coupling.interaction, scenario.baseline)):
            feeds = oam_feeds(drives, basis, interaction)
            if not any(feeds.values()):  # named by the first drive that carries OAM
                key = next((key for key, (_, modes) in zip(("pump", "pump2"), drives)
                            if any(mode.ell for mode in modes)), "pump")
                raise FieldError(f"coupling.{key}.coefficients", (
                    f"leave xi zero: the drives' net OAM {', '.join(map(str, feeds))} feeds "
                    f"no block of {interaction.value}"
                    + ("" if interaction is coupling.interaction else
                       f", the baseline {self.name} calibrates on")))


@dataclass
class ScenarioResult:
    name: str
    report: StateReport
    squeeze: SqueezeMatrix
    gain: float
    metrics: dict = field(default_factory=dict)
    eigen: EigenDecomposition = None
    eigen_rows: list = None
    scan: dict = None
    convergence: dict = None
    oracle_agreement: dict = None


def scenario_basis(name: str, ell_max: int = None, p_max: int = None) -> ModeBasis:
    """The basis a run of ``name`` uses, a bound left None at its stock value.

    The stock basis is ell_max 1, p_max 2; PdcHeralding's heralding figures
    need p_max 20.  A bound that is not an int >= 0 (a bool is not), or one
    whose assembly is over the memory limit with one pump profile, raises
    FieldError naming ``basis.ell_max`` or ``basis.p_max`` before any mode
    is listed; ScenarioConfig counts the coupling's own pump profiles.
    """
    stock = _scenario(name)
    ell_max = 1 if ell_max is None else ell_max
    p_max = stock.p_max if p_max is None else p_max
    for bound, label in ((ell_max, "basis.ell_max"), (p_max, "basis.p_max")):
        if not isinstance(bound, (int, np.integer)) or isinstance(bound, bool):
            raise FieldError(label, f"must be an integer, got {bound!r}")
        if bound < 0:
            raise FieldError(label, f"must be >= 0, got {bound}")
    check_basis_size(ell_max, p_max, 1)
    return build_basis(ell_max, p_max)


def default_config(name: str, ell_max: int = None, p_max: int = None) -> ScenarioConfig:
    """Materialize the stock geometry for a named scenario over ``scenario_basis``."""
    scenario = _scenario(name)
    basis = scenario_basis(name, ell_max, p_max)
    grid = {"pump": list(DEFAULT_GRID_RANGE), "collection": list(DEFAULT_GRID_RANGE),
            "points": DEFAULT_GRID_POINTS} if scenario.scan else None
    return ScenarioConfig(name=name, coupling=scenario.coupling(basis), scan_grid=grid)


# a share past the float range is left nan, for the report writer to refuse
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def pair_dominance_metrics(report: StateReport, basis: ModeBasis) -> dict:
    """Pair-matrix concentration metrics of ``report``, whose modes ``basis`` orders."""
    mod = np.abs(report.pair_matrix)
    total = mod.sum()
    i00 = basis.index_of_fundamental()
    nbar_diag = report.nbar_matrix.diagonal().real
    n_share = nbar_diag[i00] / report.nbar_total if report.nbar_total > 0 else 0.0
    return {
        "pair_share_00": float(mod[i00, i00] / total) if total > 0 else 0.0,
        "diag_dominance": float(np.trace(mod) / total) if total > 0 else 0.0,
        "n00_share": float(n_share),
        "figure_metric": float((mod[i00, i00] / total) * n_share) if total > 0 else 0.0,
    }


def scan_island(scan: dict) -> dict:
    """Locate the high-metric island containing the benchmark waist pair.

    The anchor maps to the grid cells bracketing it (nearest in log space);
    the island is the connected superlevel set of the metric at the best
    finite anchor cell's value, grown with 8-neighbour connectivity.  Reports
    whether the global argmax belongs to that island.  With no finite anchor,
    a FieldError names ``grid`` and the first anchor's ``scan["failures"]`` error.
    """
    pump = np.asarray(scan["pump_waists"])
    coll = np.asarray(scan["collection_waists"])
    metric = np.asarray(scan["metric"], dtype=float)

    def bracket(values, target):
        logs = np.abs(np.log(values / target))
        order = np.argsort(logs, kind="stable")
        picks = {int(order[0])}
        if len(order) > 1 and np.isclose(logs[order[1]], logs[order[0]], rtol=1e-9):
            picks.add(int(order[1]))
        return sorted(picks)

    anchors = [(i, j) for i in bracket(pump, PDC_PUMP_WAIST)
               for j in bracket(coll, PDC_COLLECTION_WAIST)]
    finite = [ij for ij in anchors if np.isfinite(metric[ij])]
    if not finite:
        i, j = anchors[0]
        error = next((f["error"] for f in scan.get("failures", ())
                      if (f["pump"], f["collection"]) == (pump[i], coll[j])), "no finite metric")
        raise FieldError("grid", f"the cell nearest the benchmark waists, pump {pump[i]:g} um "
                         f"and collection {coll[j]:g} um, failed: {error}")
    best_anchor = max(finite, key=lambda ij: metric[ij])
    threshold = float(metric[best_anchor])

    member = metric >= threshold
    island = np.zeros_like(member)
    frontier = [best_anchor]
    island[best_anchor] = True
    while frontier:
        i, j = frontier.pop()
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                ni, nj = i + di, j + dj
                if (0 <= ni < metric.shape[0] and 0 <= nj < metric.shape[1]
                        and member[ni, nj] and not island[ni, nj]):
                    island[ni, nj] = True
                    frontier.append((ni, nj))
    argmax = np.unravel_index(np.nanargmax(metric), metric.shape)
    return {
        "threshold": threshold,
        "anchor_cell": [int(best_anchor[0]), int(best_anchor[1])],
        "island_size": int(island.sum()),
        "argmax_cell": [int(argmax[0]), int(argmax[1])],
        "argmax_in_island": bool(island[argmax]),
    }


def _scaled(coupling: CouplingConfig, n_target: float, gain: float = None,
            sq: SqueezeMatrix = None):
    """Assemble ``coupling``, unless ``sq`` is it assembled, and scale it by
    ``gain`` or else calibrate it to ``n_target``: the one path to ``(sq, gain)``;
    a gain that takes the matrix past the float range names ``seed_gain``,
    and a zero matrix, which has underflowed, the cell length it scales with."""
    if sq is None:
        sq = assemble_squeeze_matrix(coupling)
    if not np.any(sq.xi):
        raise FieldError("coupling.cell_length", f"{coupling.cell_length!r} is so short "
                         "that the coupling matrix underflows to zero")
    if gain is None:
        sq, gain = scale_to_mean_photons(sq, n_target)
    else:
        with np.errstate(over="ignore"):
            xi = gain * sq.xi
        if not np.all(np.isfinite(xi)):
            raise FieldError("seed_gain", f"{gain!r} takes the coupling matrix past the "
                             "float range")
        sq = replace(sq, xi=xi)
    return sq, float(gain)


def _analysed(coupling: CouplingConfig, n_target: float, gain: float = None):
    """``_scaled``, then the state's report: ``(sq, gain, report)``."""
    sq, gain = _scaled(coupling, n_target, gain)
    return sq, gain, state_report(sq)


def _u00_variance(report: StateReport, sq: SqueezeMatrix) -> float:
    i00 = sq.basis.index_of_fundamental()
    return float(report.var_X1[i00, i00].real)


def _with_pump(coupling: CouplingConfig, **changes) -> CouplingConfig:
    """``coupling`` with fields of its first pump replaced; a pump2 of None follows."""
    return replace(coupling, pump1=replace(coupling.pump1, **changes))


def _at_waist(coupling: CouplingConfig, axis: str, waist) -> CouplingConfig:
    """``coupling`` with the waist of its ``axis`` beam, "pump" or "collection", replaced."""
    if axis == "collection":
        return replace(coupling, collection=replace(coupling.collection, waist_w0=float(waist)))
    return _with_pump(coupling, geometry=replace(coupling.pump1.geometry, waist_w0=float(waist)))


def coupling_on_basis(coupling: CouplingConfig, basis) -> CouplingConfig:
    """The same coupling over another basis, each pump coefficient kept on its mode;
    a coefficient outside ``basis`` raises FieldError naming the bound it exceeds."""
    pumps = {}
    for key, (values, modes) in zip(("pump1", "pump2"), drive_modes(coupling)):
        pump = getattr(coupling, key)
        if pump is None or pump.coefficients is None:  # a Gaussian, or pump1 again
            continue
        coefficients = np.zeros(basis.size, dtype=complex)
        for idx, value in zip(modes, values):
            if abs(idx.ell) > basis.ell_max or idx.p > basis.p_max:
                raise FieldError("basis.ell_max" if abs(idx.ell) > basis.ell_max else
                                 "basis.p_max", f"pump coefficient on mode {idx.label()} lies "
                                 f"outside the ell_max={basis.ell_max}, p_max={basis.p_max} basis")
            coefficients[basis.position(idx)] = value
        pumps[key] = replace(pump, coefficients=coefficients)
    return replace(coupling, basis=basis, **pumps)


def _ratio(name: str, numerator: float, denominator: float, gain: float) -> float:
    """numerator / denominator, or a ValueError naming the statistic and gain."""
    ratio = numerator / denominator if denominator > 0 else math.nan
    if not 0.0 < ratio < math.inf:
        raise ValueError(
            f"{name} is undefined at gain {gain:.6g}: the ratio "
            f"{numerator!r} / {denominator!r} is not positive and finite"
        )
    return ratio


def _decibels(name: str, numerator: float, denominator: float, gain: float) -> float:
    """10 log10 of a variance ratio, or a ValueError naming the statistic and gain."""
    return 10.0 * math.log10(_ratio(name, numerator, denominator, gain))


def _run_psr_single(cfg: ScenarioConfig) -> ScenarioResult:
    sq, gain, report = _analysed(cfg.coupling, cfg.n_target, cfg.seed_gain)
    metrics = {
        "nbar_total": report.nbar_total,
        "u00_variance_x1": _u00_variance(report, sq),
        "scalar_var_x1": report.scalar_var[0],
        "calibrated_gain": gain,
    }
    return ScenarioResult(cfg.name, report, sq, gain, metrics)


def _run_psr_crosstalk(cfg: ScenarioConfig) -> ScenarioResult:
    """PsrPCrosstalk / FwmTwoPhoton at the gain of their own no-crosstalk baseline."""
    baseline = replace(cfg.coupling, interaction=_scenario(cfg.name).baseline)
    base_sq, gain, base = _analysed(baseline, cfg.n_target, cfg.seed_gain)
    sq, gain, report = _analysed(cfg.coupling, cfg.n_target, gain)
    u00 = _u00_variance(report, sq)
    u00_base = _u00_variance(base, base_sq)
    metrics = {
        "frozen_gain": gain,
        "nbar_total": report.nbar_total,
        "u00_variance_x1": u00,
        "u00_noise_ratio": _ratio("u00_noise_ratio", u00, u00_base, gain),
        "scalar_var_x1": report.scalar_var[0],
        "scalar_noise_ratio": report.scalar_var[0] / base.scalar_var[0],
        "baseline_nbar_total": base.nbar_total,
        "baseline_u00_variance_x1": u00_base,
    }
    return ScenarioResult(cfg.name, report, sq, gain, metrics)


def _pdc_analysis(cfg: ScenarioConfig, coupling: CouplingConfig = None) -> ScenarioResult:
    """Statistics, eigenmodes and pair dominance of ``coupling``, else ``cfg.coupling``.

    A squeezing matrix that is not normal has no eigenmodes: the FieldError
    names the first beam focused off the cell centre, in ``_beam_keys``
    order, and with every focus at the centre ``coupling.pump.coefficients``.
    """
    coupling = coupling or cfg.coupling
    sq, gain, report = _analysed(coupling, cfg.n_target, cfg.seed_gain)
    try:
        eigen = decompose(sq)
    except ValueError as exc:
        if is_normal(sq.xi)[0]:  # not decompose's refusal of a matrix that is not normal
            raise
        key, focus = next(((name, geom.focus_z) for name, geom in _beam_keys(coupling, "focus_z")
                           if geom.focus_z), ("coupling.pump.coefficients", 0.0))
        cause = (f"a focus {focus!r} um from the cell centre breaks" if focus else
                 "with every focus at the cell centre, the pump's modes break")
        raise FieldError(key, f"{exc}: {cause} the normality the eigenmode analysis "
                         "needs") from None
    try:
        rows = eigenmode_report(eigen)
    except OverflowError:  # e^(2 lambda) of variance_plus is the first to overflow
        raise ValueError(
            f"eigenmode variance_plus is undefined at gain {gain:.6g}: "
            f"e^(2 lambda_1) overflows at lambda_1 = {float(eigen.lam[0])!r}"
        ) from None
    u00_var = _u00_variance(report, sq)
    metrics = {
        "nbar_total": report.nbar_total,
        "u00_variance_x1": u00_var,
        "u00_variance_normalized": 4.0 * u00_var,
        "lambda_1": rows[0].lam,
        "lambda1_variance_normalized": 4.0 * rows[0].variance_minus,
        "eigen_improvement_db": _decibels(
            "eigen_improvement_db", u00_var, rows[0].variance_minus, gain
        ),
        "calibrated_gain": gain,
    }
    metrics.update(pair_dominance_metrics(report, sq.basis))
    return ScenarioResult(cfg.name, report, sq, gain, metrics, eigen=eigen, eigen_rows=rows)


def _run_pdc_eigen_pump(cfg: ScenarioConfig) -> ScenarioResult:
    """The benchmark coupling, then the same coupling pumped in its leading eigenmode."""
    bench = _pdc_analysis(cfg)
    pumped = _with_pump(cfg.coupling, coefficients=eigenmode_pump(bench.eigen, 1))
    result = _pdc_analysis(cfg, pumped)
    b, metrics = bench.metrics, result.metrics
    metrics.update({
        "benchmark_lambda_1": b["lambda_1"],
        "benchmark_u00_variance_x1": b["u00_variance_x1"],
        "benchmark_u00_variance_normalized": b["u00_variance_normalized"],
        "improvement_vs_benchmark_u00_db": _decibels(
            "improvement_vs_benchmark_u00_db", b["u00_variance_x1"],
            result.eigen_rows[0].variance_minus, result.gain,
        ),
        "benchmark_nbar_lambda1_share": _ratio(
            "benchmark_nbar_lambda1_share", math.sinh(b["lambda_1"]) ** 2,
            bench.report.nbar_total, bench.gain,
        ),
        "nbar_lambda1_share": _ratio(
            "nbar_lambda1_share", math.sinh(metrics["lambda_1"]) ** 2,
            result.report.nbar_total, result.gain,
        ),
    })
    return result


def _run_pdc_heralding(cfg: ScenarioConfig) -> ScenarioResult:
    sq, gain = _scaled(cfg.coupling, cfg.n_target, cfg.seed_gain)
    # reference: the benchmark pump waist at the same extended basis, calibrated
    # to the run's photon number (the target, or what a seed gain gave).  It is
    # assembled before the run's report, whose BLAS calls wake a thread pool
    # that would spin on a CPU the reference's split contraction could use
    ref = _at_waist(cfg.coupling, "pump", PDC_PUMP_WAIST)
    ref_sq = assemble_squeeze_matrix(ref)
    report = state_report(sq)
    metrics = {"nbar_total": report.nbar_total, "calibrated_gain": gain}
    metrics.update(pair_dominance_metrics(report, sq.basis))
    target = cfg.n_target if cfg.seed_gain is None else report.nbar_total
    if not 0.0 < target < math.inf:
        raise FieldError("seed_gain", f"{cfg.seed_gain!r} gives photon number {target!r}; "
                         "the benchmark reference needs a positive, finite one")
    ref_sq, _ = _scaled(ref, target, sq=ref_sq)
    ref_report = state_report(ref_sq)
    ref_metrics = pair_dominance_metrics(ref_report, ref_sq.basis)
    metrics["benchmark_diag_dominance"] = ref_metrics["diag_dominance"]
    metrics["benchmark_n00_share"] = ref_metrics["n00_share"]
    nbar_diag = report.nbar_matrix.diagonal().real
    beyond = [nbar_diag[i] for i, idx in enumerate(sq.basis.order) if idx.p > 2]
    metrics["occupation_beyond_p2"] = float(np.sum(beyond))
    return ScenarioResult(cfg.name, report, sq, gain, metrics)


# the refusal of a cell's unresolvable waist (coupling._assemble_raw) -> the grid axis that set it
_SCANNED = {"coupling.pump": "grid.pump", "coupling.collection.waist_w0": "grid.collection"}


def _run_waist_scan(cfg: ScenarioConfig) -> ScenarioResult:
    """Every pump/collection waist pair of the grid; the best cell is reported."""
    grid, coupling = cfg.scan_grid, cfg.coupling
    points = grid["points"]
    pump_vals = np.geomspace(grid["pump"][0], grid["pump"][1], points)
    coll_vals = np.geomspace(grid["collection"][0], grid["collection"][1], points)
    metric = np.full((points, points), np.nan)
    failures, refusals = [], {}  # refusals: the first exception of each field
    best, best_metric = None, -math.inf
    for i, wp in enumerate(pump_vals):
        for j, wc in enumerate(coll_vals):
            try:
                cell = _at_waist(_at_waist(coupling, "pump", wp), "collection", wc)
                sq, gain, report = _analysed(cell, cfg.n_target)
                metric[i, j] = pair_dominance_metrics(report, sq.basis)["figure_metric"]
            except (ValueError, np.linalg.LinAlgError) as exc:
                # a numerical failure of this cell: record it and scan on
                failures.append({"pump": float(wp), "collection": float(wc),
                                 "error": str(exc)})
                refusals.setdefault(getattr(exc, "field", None), exc)  # None: no field
                continue
            # strict > in row-major order keeps the first maximum, as np.nanargmax does
            if metric[i, j] > best_metric:
                best, best_metric = (i, j, sq, gain, report), metric[i, j]
    if best is None:
        if len(failures) == metric.size and len(refusals) == 1 and None not in refusals:
            field, exc = refusals.popitem()  # every cell was refused by the same field
            if field in _SCANNED:  # a waist the grid set
                raise FieldError(_SCANNED[field], exc.reason) from exc
            raise exc
        raise ValueError("no WaistScan cell gave a finite metric")
    i, j, sq, gain, report = best
    scan = {
        "pump_waists": pump_vals.tolist(),
        "collection_waists": coll_vals.tolist(),
        "metric": metric.tolist(),
        "argmax_pump": float(pump_vals[i]),
        "argmax_collection": float(coll_vals[j]),
        "argmax_metric": float(best_metric),
        "failures": failures,
    }
    island = scan_island(scan)
    scan["island"] = island
    metrics = {
        "nbar_total": report.nbar_total,
        "argmax_in_island": float(island["argmax_in_island"]),
        "island_threshold": island["threshold"],
    }
    return ScenarioResult(cfg.name, report, sq, gain, metrics, scan=scan)


_SCENARIOS = {
    "PsrSinglePhoton": _Scenario(
        _run_psr_single, partial(_psr_coupling, InteractionType.DEGENERATE_SINGLE_BEAM),
        rerun=True),
    "PsrPCrosstalk": _Scenario(
        _run_psr_crosstalk, partial(_psr_coupling, InteractionType.P_CROSSTALK_ONLY), rerun=True,
        baseline=InteractionType.DEGENERATE_SINGLE_BEAM),
    "FwmTwoPhoton": _Scenario(
        _run_psr_crosstalk, partial(_psr_coupling, InteractionType.FULL_CROSSTALK), rerun=True,
        baseline=InteractionType.DEGENERATE_SINGLE_BEAM),
    "PdcBenchmark": _Scenario(
        _pdc_analysis, partial(_pdc_coupling, PDC_PUMP_WAIST), rerun=True),
    "PdcEigenPump": _Scenario(
        _run_pdc_eigen_pump, partial(_pdc_coupling, PDC_PUMP_WAIST), pump="eigenmode"),
    "PdcHeralding": _Scenario(
        _run_pdc_heralding, partial(_pdc_coupling, PDC_HERALDING_PUMP_WAIST),
        p_max=HERALDING_P_MAX),
    "WaistScan": _Scenario(
        _run_waist_scan, partial(_pdc_coupling, PDC_PUMP_WAIST), scan=True, pump="gaussian"),
}
SCENARIO_NAMES = tuple(_SCENARIOS)


def _convergence_check(cfg: ScenarioConfig) -> dict:
    """Re-run at a larger basis and report the drift of the headline numbers."""
    try:
        coupling = coupling_on_basis(cfg.coupling, scenario_basis(cfg.name, 2, 4))
    except FieldError as exc:  # a bound of the re-run, which no flag or key sets
        raise ValueError(f"convergence_check: {exc.reason} of the re-run") from None
    result = _scenario(cfg.name).run(replace(cfg, coupling=coupling))
    return {
        "basis": f"ell_max={coupling.basis.ell_max},p_max={coupling.basis.p_max}",
        "nbar_total": result.report.nbar_total,
        "u00_variance_x1": _u00_variance(result.report, result.squeeze),
    }


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Run a scenario, with the convergence re-check where configured."""
    result = _scenario(cfg.name).run(cfg)
    if cfg.convergence_check:
        result.convergence = _convergence_check(cfg)
    return result
