"""Named simulation scenarios: PSR, FWM, PDC, waist scan and heralding.

The PSR/FWM family shares one geometry (795 nm pump, 80 um waist, cell three
Rayleigh ranges long, all foci at the cell centre) and one calibration
protocol: the interaction strength is fixed once so the no-crosstalk baseline
carries one photon per beam on average, then reused unchanged for the
crosstalk variants, making the photon-number ratios the observable.

The PDC family down-converts a 405 nm pump into 810 nm signal/idler pairs
collected at an independent waist; every run is rescaled to one photon on
average so the statistics isolate how the coupling structure redistributes a
fixed photon budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .coupling import (
    CouplingConfig,
    InteractionType,
    MediumConfig,
    PumpSpec,
    assemble_squeeze_matrix,
    check_basis_size,
    scale_to_mean_photons,
)
from .eigenmodes import EigenDecomposition, decompose, eigenmode_pump, eigenmode_report
from .modes import BeamGeometry, ModeBasis, QuadratureError, build_basis
from .squeeze_core import SqueezeMatrix, StateReport, pair_creation_matrix, state_report

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


def _psr_geometry() -> BeamGeometry:
    return BeamGeometry(wavelength=PSR_WAVELENGTH, waist_w0=PSR_WAIST, focus_z=0.0)


def _psr_medium() -> MediumConfig:
    geom = _psr_geometry()
    return MediumConfig(cell_length=3.0 * geom.rayleigh_zR, center_z=0.0)


def pdc_cell_length() -> float:
    ref = BeamGeometry(
        wavelength=PDC_COLLECTION_WAVELENGTH, waist_w0=PDC_COLLECTION_WAIST
    )
    return PDC_CELL_RAYLEIGHS * ref.rayleigh_zR


def _pdc_medium() -> MediumConfig:
    return MediumConfig(cell_length=pdc_cell_length(), center_z=0.0)


def _pdc_coupling(pump_waist: float, basis) -> CouplingConfig:
    # down-conversion consumes one pump photon per pair: three-wave kernel
    return CouplingConfig(
        interaction=InteractionType.FULL_CROSSTALK,
        medium=_pdc_medium(),
        pump1=PumpSpec(BeamGeometry(wavelength=PDC_PUMP_WAVELENGTH, waist_w0=pump_waist)),
        collection=BeamGeometry(
            wavelength=PDC_COLLECTION_WAVELENGTH, waist_w0=PDC_COLLECTION_WAIST
        ),
        basis=basis,
        single_pump=True,
    )


class FieldError(ValueError):
    """A ScenarioConfig field is refused: ``field`` names it, ``reason`` says why."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


@dataclass(frozen=True)
class ScenarioConfig:
    """A named scenario with its fully-resolved coupling configuration.

    Construction, ``dataclasses.replace`` included, is the one place the
    fields are checked; a refused field raises FieldError naming it.
    """

    name: str
    coupling: CouplingConfig
    n_target: float = 1.0
    scan_grid: dict = None  # WaistScan only: "pump" and "collection" ranges, "points"
    seed_gain: float = None  # overrides the calibration protocol when set
    convergence_check: bool = None  # None: on exactly where a re-run exists

    def __post_init__(self):
        if self.name not in SCENARIO_NAMES:
            raise FieldError("name", f"unknown scenario {self.name!r}; choose from "
                             + ", ".join(SCENARIO_NAMES))
        if self.convergence_check is None:
            object.__setattr__(self, "convergence_check", self.name in _RERUNS)
        elif self.convergence_check and self.name not in _RERUNS:
            raise FieldError("convergence_check", f"must be false: {self.name} has no re-run")
        if not (math.isfinite(self.n_target) and self.n_target > 0):
            raise FieldError("n_target", f"must be finite and > 0, got {self.n_target!r}")
        if self.seed_gain is not None and not math.isfinite(self.seed_gain):
            raise FieldError("seed_gain", f"must be finite, got {self.seed_gain!r}")
        if self.seed_gain is not None and self.name == "WaistScan":
            raise FieldError("seed_gain", "is not used: WaistScan calibrates every cell")
        if (self.scan_grid is None) == (self.name == "WaistScan"):
            raise FieldError("scan_grid", "is needed by WaistScan and taken by no other scenario")
        if self.scan_grid is not None:
            for axis in ("pump", "collection"):
                low, high = self.scan_grid[axis]
                if not 0 < low < high < math.inf:
                    raise FieldError(f"scan_grid.{axis}",
                                     f"must be [low, high] with 0 < low < high, got {[low, high]}")
            if not self.scan_grid["points"] >= 2:
                raise FieldError("scan_grid.points",
                                 f"must be >= 2, got {self.scan_grid['points']}")


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


def scenario_basis(name: str, ell_max: int = None, p_max: int = None,
                   names=("ell_max", "p_max")) -> ModeBasis:
    """The basis a run of ``name`` uses, a bound left None at its stock value.

    The stock basis is ell_max 1, p_max 2; PdcHeralding's heralding figures
    need p_max 20.  A negative or oversized bound raises ValueError naming
    it by ``names`` before any mode is listed.
    """
    stock_p_max = HERALDING_P_MAX if name == "PdcHeralding" else 2
    ell_max = 1 if ell_max is None else ell_max
    p_max = stock_p_max if p_max is None else p_max
    for bound, label in zip((ell_max, p_max), names):
        if bound < 0:
            raise ValueError(f"{label} must be >= 0, got {bound}")
    check_basis_size(ell_max, p_max, names)
    return build_basis(ell_max, p_max)


def default_config(name: str, ell_max: int = None, p_max: int = None) -> ScenarioConfig:
    """Materialize the stock geometry for a named scenario over ``scenario_basis``."""
    basis = scenario_basis(name, ell_max, p_max)
    grid = None
    if name in ("PsrSinglePhoton", "PsrPCrosstalk", "FwmTwoPhoton"):
        interaction = {
            "PsrSinglePhoton": InteractionType.DEGENERATE_SINGLE_BEAM,
            "PsrPCrosstalk": InteractionType.P_CROSSTALK_ONLY,
            "FwmTwoPhoton": InteractionType.FULL_CROSSTALK,
        }[name]
        geom = _psr_geometry()
        coupling = CouplingConfig(
            interaction=interaction,
            medium=_psr_medium(),
            pump1=PumpSpec(geometry=geom),
            collection=geom,
            basis=basis,
        )
    elif name == "PdcHeralding":
        coupling = _pdc_coupling(PDC_HERALDING_PUMP_WAIST, basis)
    else:
        coupling = _pdc_coupling(PDC_PUMP_WAIST, basis)
        if name == "WaistScan":
            grid = {
                "pump": list(DEFAULT_GRID_RANGE),
                "collection": list(DEFAULT_GRID_RANGE),
                "points": DEFAULT_GRID_POINTS,
            }
    return ScenarioConfig(name=name, coupling=coupling, scan_grid=grid)


def pair_dominance_metrics(sq: SqueezeMatrix) -> dict:
    """Pair-matrix concentration metrics used by the scan and heralding runs."""
    from .squeeze_core import photon_statistics

    pair, _ = pair_creation_matrix(sq)
    mod = np.abs(pair)
    total = mod.sum()
    i00 = sq.basis.index_of_fundamental()
    nbar, nbar_total, _, _ = photon_statistics(sq)
    nbar_diag = nbar.diagonal().real
    n_share = nbar_diag[i00] / nbar_total if nbar_total > 0 else 0.0
    return {
        "pair_share_00": float(mod[i00, i00] / total) if total > 0 else 0.0,
        "diag_dominance": float(np.trace(mod) / total) if total > 0 else 0.0,
        "n00_share": float(n_share),
        "figure_metric": float((mod[i00, i00] / total) * n_share) if total > 0 else 0.0,
    }


def scan_island(scan: dict, anchor_pump: float = 200.0,
                anchor_collection: float = 200.0) -> dict:
    """Locate the high-metric island containing the anchor waist pair.

    The anchor maps to the grid cells bracketing it (nearest in log space);
    the island is the connected superlevel set of the metric at the best
    anchor cell's value, grown with 8-neighbour connectivity.  Reports
    whether the global argmax belongs to that island.
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

    anchors = [(i, j) for i in bracket(pump, anchor_pump)
               for j in bracket(coll, anchor_collection)]
    best_anchor = max(anchors, key=lambda ij: metric[ij])
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


def _apply_gain(cfg: ScenarioConfig, sq: SqueezeMatrix, gain: float = None):
    """Scale by ``gain`` (default: the config's seed gain), else calibrate to n_target."""
    gain = cfg.seed_gain if gain is None else gain
    if gain is not None:
        scaled = SqueezeMatrix(xi=gain * sq.xi, basis=sq.basis, interaction=sq.interaction)
        return scaled, float(gain)
    return scale_to_mean_photons(sq, cfg.n_target)


def _analysed(cfg: ScenarioConfig, coupling: CouplingConfig, gain: float = None):
    """The shared step: assemble ``coupling``, apply the gain, report the state."""
    sq, gain = _apply_gain(cfg, assemble_squeeze_matrix(coupling), gain)
    return sq, gain, state_report(sq)


def _u00_variance(report: StateReport, sq: SqueezeMatrix) -> float:
    i00 = sq.basis.index_of_fundamental()
    return float(report.var_X1[i00, i00].real)


def _with_waist(geom: BeamGeometry, waist: float) -> BeamGeometry:
    """The same beam at another waist, its Rayleigh range derived anew."""
    return replace(geom, waist_w0=waist, rayleigh_zR=None)


def _with_pump(coupling: CouplingConfig, **changes) -> CouplingConfig:
    """``coupling`` with fields of its first pump replaced; a shared second pump follows."""
    pump2 = None if coupling.pump2 is coupling.pump1 else coupling.pump2
    return replace(coupling, pump1=replace(coupling.pump1, **changes), pump2=pump2)


def _pump_on_basis(pump: PumpSpec, old, new) -> PumpSpec:
    """The same pump with its mode coefficients moved from basis ``old`` to ``new``."""
    if pump.coefficients is None:
        return pump
    coefficients = np.zeros(new.size, dtype=complex)
    for idx, value in zip(old.order, pump.coefficients):
        if value == 0.0:
            continue
        if abs(idx.ell) > new.ell_max or idx.p > new.p_max:
            raise ValueError(f"pump coefficient on mode {idx.label()} lies outside the "
                             f"ell_max={new.ell_max}, p_max={new.p_max} basis")
        coefficients[new.position(idx)] = value
    return replace(pump, coefficients=coefficients)


def coupling_on_basis(coupling: CouplingConfig, basis) -> CouplingConfig:
    """The same coupling over another basis, each pump coefficient kept on its mode."""
    pump1 = _pump_on_basis(coupling.pump1, coupling.basis, basis)
    pump2 = None
    if coupling.pump2 is not coupling.pump1:
        pump2 = _pump_on_basis(coupling.pump2, coupling.basis, basis)
    return replace(coupling, basis=basis, pump1=pump1, pump2=pump2)


def _decibels(name: str, numerator: float, denominator: float, gain: float) -> float:
    """10 log10 of a variance ratio, or a ValueError naming the statistic and gain."""
    ratio = numerator / denominator if denominator > 0 else math.nan
    if not 0.0 < ratio < math.inf:
        raise ValueError(
            f"{name} is undefined at gain {gain:.6g}: the variance ratio "
            f"{numerator!r} / {denominator!r} is not positive and finite"
        )
    return 10.0 * math.log10(ratio)


def _run_psr_single(cfg: ScenarioConfig) -> ScenarioResult:
    sq, gain, report = _analysed(cfg, cfg.coupling)
    metrics = {
        "nbar_total": report.nbar_total,
        "u00_variance_x1": _u00_variance(report, sq),
        "scalar_var_x1": report.scalar_var[0],
        "calibrated_gain": gain,
    }
    return ScenarioResult(cfg.name, report, sq, gain, metrics)


def _run_psr_crosstalk(cfg: ScenarioConfig) -> ScenarioResult:
    """PsrPCrosstalk / FwmTwoPhoton at the gain of their own no-crosstalk baseline."""
    baseline = replace(cfg.coupling, interaction=InteractionType.DEGENERATE_SINGLE_BEAM)
    base_sq, gain, base = _analysed(cfg, baseline)
    sq, gain, report = _analysed(cfg, cfg.coupling, gain)
    u00 = _u00_variance(report, sq)
    u00_base = _u00_variance(base, base_sq)
    metrics = {
        "frozen_gain": gain,
        "nbar_total": report.nbar_total,
        "u00_variance_x1": u00,
        "u00_noise_ratio": u00 / u00_base,
        "scalar_var_x1": report.scalar_var[0],
        "scalar_noise_ratio": report.scalar_var[0] / base.scalar_var[0],
        "baseline_nbar_total": base.nbar_total,
        "baseline_u00_variance_x1": u00_base,
    }
    return ScenarioResult(cfg.name, report, sq, gain, metrics)


def _pdc_analysis(cfg: ScenarioConfig, coupling: CouplingConfig) -> ScenarioResult:
    """Statistics, eigenmodes and pair dominance of one down-conversion coupling."""
    sq, gain, report = _analysed(cfg, coupling)
    eigen = decompose(sq)
    rows = eigenmode_report(eigen)
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
    metrics.update(pair_dominance_metrics(sq))
    return ScenarioResult(cfg.name, report, sq, gain, metrics, eigen=eigen, eigen_rows=rows)


def _run_pdc_benchmark(cfg: ScenarioConfig) -> ScenarioResult:
    return _pdc_analysis(cfg, cfg.coupling)


def _run_pdc_eigen_pump(cfg: ScenarioConfig) -> ScenarioResult:
    """The benchmark coupling, then the same coupling pumped in its leading eigenmode."""
    bench = _pdc_analysis(cfg, cfg.coupling)
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
        "benchmark_nbar_lambda1_share": (
            math.sinh(b["lambda_1"]) ** 2 / bench.report.nbar_total
        ),
        "nbar_lambda1_share": math.sinh(metrics["lambda_1"]) ** 2 / result.report.nbar_total,
    })
    return result


def _run_pdc_heralding(cfg: ScenarioConfig) -> ScenarioResult:
    sq, gain, report = _analysed(cfg, cfg.coupling)
    metrics = {"nbar_total": report.nbar_total, "calibrated_gain": gain}
    metrics.update(pair_dominance_metrics(sq))
    # reference: the benchmark pump waist at the same extended basis, calibrated
    # to the run's photon number (the target, or what a seed gain gave)
    pump = cfg.coupling.pump1.geometry
    ref = _with_pump(cfg.coupling, geometry=_with_waist(pump, PDC_PUMP_WAIST))
    target = cfg.n_target if cfg.seed_gain is None else report.nbar_total
    ref_sq, _ = scale_to_mean_photons(assemble_squeeze_matrix(ref), target)
    ref_metrics = pair_dominance_metrics(ref_sq)
    metrics["benchmark_diag_dominance"] = ref_metrics["diag_dominance"]
    metrics["benchmark_n00_share"] = ref_metrics["n00_share"]
    nbar_diag = report.nbar_matrix.diagonal().real
    beyond = [nbar_diag[i] for i, idx in enumerate(sq.basis.order) if idx.p > 2]
    metrics["occupation_beyond_p2"] = float(np.sum(beyond))
    return ScenarioResult(cfg.name, report, sq, gain, metrics)


def _run_waist_scan(cfg: ScenarioConfig) -> ScenarioResult:
    """Every pump/collection waist pair of the grid; the best cell is reported."""
    grid, coupling = cfg.scan_grid, cfg.coupling
    pump = coupling.pump1.geometry
    points = grid["points"]
    pump_vals = np.geomspace(grid["pump"][0], grid["pump"][1], points)
    coll_vals = np.geomspace(grid["collection"][0], grid["collection"][1], points)
    metric = np.full((points, points), np.nan)
    failures = []
    best, best_metric = None, -math.inf
    for i, wp in enumerate(pump_vals):
        for j, wc in enumerate(coll_vals):
            try:
                cell = replace(_with_pump(coupling, geometry=_with_waist(pump, float(wp))),
                               collection=_with_waist(coupling.collection, float(wc)))
                sq, gain = scale_to_mean_photons(assemble_squeeze_matrix(cell), cfg.n_target)
                metric[i, j] = pair_dominance_metrics(sq)["figure_metric"]
            except (QuadratureError, ValueError, np.linalg.LinAlgError) as exc:
                # a numerical failure of this cell: record it and scan on
                failures.append({"pump": float(wp), "collection": float(wc),
                                 "error": str(exc)})
                continue
            # strict > in row-major order keeps the first maximum, as np.nanargmax does
            if metric[i, j] > best_metric:
                best, best_metric = (i, j, sq, gain), metric[i, j]
    if best is None:
        raise ValueError("no WaistScan cell gave a finite metric")
    i, j, sq, gain = best
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
    report = state_report(sq)
    metrics = {
        "nbar_total": report.nbar_total,
        "argmax_in_island": float(island["argmax_in_island"]),
        "island_threshold": island["threshold"],
    }
    return ScenarioResult(cfg.name, report, sq, gain, metrics, scan=scan)


_RUNNERS = {
    "PsrSinglePhoton": _run_psr_single,
    "PsrPCrosstalk": _run_psr_crosstalk,
    "FwmTwoPhoton": _run_psr_crosstalk,
    "PdcBenchmark": _run_pdc_benchmark,
    "PdcEigenPump": _run_pdc_eigen_pump,
    "PdcHeralding": _run_pdc_heralding,
    "WaistScan": _run_waist_scan,
}
SCENARIO_NAMES = tuple(_RUNNERS)
# the scenarios that convergence_check re-runs at a larger basis
_RERUNS = frozenset({"PsrSinglePhoton", "PsrPCrosstalk", "FwmTwoPhoton", "PdcBenchmark"})


def _convergence_check(cfg: ScenarioConfig) -> dict:
    """Re-run at a larger basis and report the drift of the headline numbers."""
    big = replace(cfg, coupling=coupling_on_basis(cfg.coupling, scenario_basis(cfg.name, 2, 4)))
    result = _RUNNERS[cfg.name](big)
    return {
        "basis": "ell_max=2,p_max=4",
        "nbar_total": result.report.nbar_total,
        "u00_variance_x1": _u00_variance(result.report, result.squeeze),
    }


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Run a scenario, with the convergence re-check where configured."""
    result = _RUNNERS[cfg.name](cfg)
    if cfg.convergence_check:
        result.convergence = _convergence_check(cfg)
    return result
