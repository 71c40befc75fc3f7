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
    scale_to_mean_photons,
)
from .eigenmodes import EigenDecomposition, decompose, eigenmode_pump, eigenmode_report
from .modes import BeamGeometry, QuadratureError, build_basis
from .squeeze_core import SqueezeMatrix, StateReport, pair_creation_matrix, state_report

__all__ = [
    "SCENARIO_NAMES",
    "ScenarioConfig",
    "ScenarioResult",
    "coupling_on_basis",
    "default_config",
    "run_scenario",
    "pair_dominance_metrics",
    "scan_island",
]

SCENARIO_NAMES = (
    "PsrSinglePhoton",
    "PsrPCrosstalk",
    "FwmTwoPhoton",
    "PdcBenchmark",
    "PdcEigenPump",
    "PdcHeralding",
    "WaistScan",
)

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


def _pdc_coupling(pump_waist: float, collection_waist: float, basis,
                  pump_coefficients=None, medium: MediumConfig = None) -> CouplingConfig:
    pump = PumpSpec(
        geometry=BeamGeometry(wavelength=PDC_PUMP_WAVELENGTH, waist_w0=pump_waist),
        coefficients=pump_coefficients,
    )
    # down-conversion consumes one pump photon per pair: three-wave kernel
    return CouplingConfig(
        interaction=InteractionType.FULL_CROSSTALK,
        medium=medium if medium is not None else _pdc_medium(),
        pump1=pump,
        collection=BeamGeometry(
            wavelength=PDC_COLLECTION_WAVELENGTH, waist_w0=collection_waist
        ),
        basis=basis,
        single_pump=True,
    )


@dataclass
class ScenarioConfig:
    """A named scenario with its fully-resolved coupling configuration."""

    name: str
    coupling: CouplingConfig
    n_target: float = 1.0
    scan_grid: dict = None
    seed_gain: float = None  # overrides the calibration protocol when set
    convergence_check: bool = True

    def __post_init__(self):
        if self.name not in SCENARIO_NAMES:
            raise ValueError(f"unknown scenario {self.name!r}")
        if self.n_target <= 0:
            raise ValueError("n_target must be > 0")


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


def default_config(name: str, ell_max: int = 1, p_max: int = 2) -> ScenarioConfig:
    """Materialize the stock geometry and basis for a named scenario."""
    basis = build_basis(ell_max, p_max)
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
        return ScenarioConfig(name=name, coupling=coupling)
    if name in ("PdcBenchmark", "PdcEigenPump"):
        coupling = _pdc_coupling(PDC_PUMP_WAIST, PDC_COLLECTION_WAIST, basis)
        return ScenarioConfig(name=name, coupling=coupling)
    if name == "PdcHeralding":
        basis = build_basis(ell_max, max(p_max, HERALDING_P_MAX))
        coupling = _pdc_coupling(PDC_HERALDING_PUMP_WAIST, PDC_COLLECTION_WAIST, basis)
        return ScenarioConfig(name=name, coupling=coupling, convergence_check=False)
    if name == "WaistScan":
        coupling = _pdc_coupling(PDC_PUMP_WAIST, PDC_COLLECTION_WAIST, basis)
        grid = {
            "pump": list(DEFAULT_GRID_RANGE),
            "collection": list(DEFAULT_GRID_RANGE),
            "points": DEFAULT_GRID_POINTS,
        }
        return ScenarioConfig(
            name=name, coupling=coupling, scan_grid=grid, convergence_check=False
        )
    raise ValueError(f"unknown scenario {name!r}")


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


def _apply_gain(cfg: ScenarioConfig, sq: SqueezeMatrix):
    """Calibrate to the photon target, or apply an explicit gain override."""
    if cfg.seed_gain is not None:
        scaled = SqueezeMatrix(
            xi=cfg.seed_gain * sq.xi, basis=sq.basis, interaction=sq.interaction
        )
        return scaled, float(cfg.seed_gain)
    return scale_to_mean_photons(sq, cfg.n_target)


def _psr_frozen_gain(cfg: ScenarioConfig) -> float:
    """Gain fixed by the no-crosstalk baseline at the same basis and target."""
    if cfg.seed_gain is not None:
        return float(cfg.seed_gain)
    base = default_config("PsrSinglePhoton", cfg.coupling.basis.ell_max,
                          cfg.coupling.basis.p_max)
    base.n_target = cfg.n_target
    raw = assemble_squeeze_matrix(base.coupling)
    _, gain = scale_to_mean_photons(raw, base.n_target)
    return gain


def _u00_variance(report: StateReport, sq: SqueezeMatrix) -> float:
    i00 = sq.basis.index_of_fundamental()
    return float(report.var_X1[i00, i00].real)


def _convergence_check(cfg: ScenarioConfig) -> dict:
    """Re-run at a larger basis and report the drift of the headline numbers."""
    big = _rebuild_at_basis(cfg, ell_max=2, p_max=4)
    big.convergence_check = False
    result = _run_single(big)
    return {
        "basis": "ell_max=2,p_max=4",
        "nbar_total": result.report.nbar_total,
        "u00_variance_x1": _u00_variance(result.report, result.squeeze),
    }


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


def _rebuild_at_basis(cfg: ScenarioConfig, ell_max: int, p_max: int) -> ScenarioConfig:
    fresh = default_config(cfg.name, ell_max, p_max)
    fresh.n_target = cfg.n_target
    fresh.seed_gain = cfg.seed_gain
    # keep any overridden geometry/medium/pump, swapping only the basis
    fresh.coupling = coupling_on_basis(cfg.coupling, build_basis(ell_max, p_max))
    return fresh


def _decibels(name: str, numerator: float, denominator: float, gain: float) -> float:
    """10 log10 of a variance ratio, or a ValueError naming the statistic and gain."""
    ratio = numerator / denominator if denominator > 0 else math.nan
    if not 0.0 < ratio < math.inf:
        raise ValueError(
            f"{name} is undefined at gain {gain:.6g}: the variance ratio "
            f"{numerator!r} / {denominator!r} is not positive and finite"
        )
    return 10.0 * math.log10(ratio)


def _run_single(cfg: ScenarioConfig) -> ScenarioResult:
    name = cfg.name
    if name == "PsrSinglePhoton":
        raw = assemble_squeeze_matrix(cfg.coupling)
        sq, gain = _apply_gain(cfg, raw)
        report = state_report(sq)
        metrics = {
            "nbar_total": report.nbar_total,
            "u00_variance_x1": _u00_variance(report, sq),
            "scalar_var_x1": report.scalar_var[0],
            "calibrated_gain": gain,
        }
        return ScenarioResult(name, report, sq, gain, metrics)

    if name in ("PsrPCrosstalk", "FwmTwoPhoton"):
        gain = _psr_frozen_gain(cfg)
        raw = assemble_squeeze_matrix(cfg.coupling)
        sq = SqueezeMatrix(xi=gain * raw.xi, basis=raw.basis, interaction=raw.interaction)
        report = state_report(sq)
        base_coupling = CouplingConfig(
            interaction=InteractionType.DEGENERATE_SINGLE_BEAM,
            medium=cfg.coupling.medium,
            pump1=cfg.coupling.pump1,
            pump2=cfg.coupling.pump2,
            collection=cfg.coupling.collection,
            basis=cfg.coupling.basis,
            single_pump=cfg.coupling.single_pump,
        )
        base_result = _run_single(
            ScenarioConfig(
                name="PsrSinglePhoton",
                coupling=base_coupling,
                n_target=cfg.n_target,
                seed_gain=cfg.seed_gain,
                convergence_check=False,
            )
        )
        u00 = _u00_variance(report, sq)
        u00_base = base_result.metrics["u00_variance_x1"]
        metrics = {
            "frozen_gain": gain,
            "nbar_total": report.nbar_total,
            "u00_variance_x1": u00,
            "u00_noise_ratio": u00 / u00_base,
            "scalar_var_x1": report.scalar_var[0],
            "scalar_noise_ratio": report.scalar_var[0] / base_result.report.scalar_var[0],
            "baseline_nbar_total": base_result.report.nbar_total,
            "baseline_u00_variance_x1": u00_base,
        }
        return ScenarioResult(name, report, sq, gain, metrics)

    if name in ("PdcBenchmark", "PdcEigenPump"):
        if name == "PdcEigenPump":
            bench = _run_single(
                ScenarioConfig(
                    name="PdcBenchmark",
                    coupling=_pdc_coupling(
                        cfg.coupling.pump1.geometry.waist_w0,
                        cfg.coupling.collection.waist_w0,
                        cfg.coupling.basis,
                        medium=cfg.coupling.medium,
                    ),
                    n_target=cfg.n_target,
                    seed_gain=cfg.seed_gain,
                    convergence_check=False,
                )
            )
            pump_coeff = eigenmode_pump(bench.eigen, 1)
            coupling = _pdc_coupling(
                cfg.coupling.pump1.geometry.waist_w0,
                cfg.coupling.collection.waist_w0,
                cfg.coupling.basis,
                pump_coefficients=pump_coeff,
                medium=cfg.coupling.medium,
            )
        else:
            bench = None
            coupling = cfg.coupling
        raw = assemble_squeeze_matrix(coupling)
        sq, gain = _apply_gain(cfg, raw)
        report = state_report(sq)
        eigen = decompose(sq)
        rows = eigenmode_report(eigen)
        i00 = sq.basis.index_of_fundamental()
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
        if name == "PdcEigenPump":
            metrics["benchmark_lambda_1"] = bench.metrics["lambda_1"]
            metrics["benchmark_u00_variance_x1"] = bench.metrics["u00_variance_x1"]
            metrics["benchmark_u00_variance_normalized"] = bench.metrics[
                "u00_variance_normalized"
            ]
            metrics["improvement_vs_benchmark_u00_db"] = _decibels(
                "improvement_vs_benchmark_u00_db",
                bench.metrics["u00_variance_x1"], rows[0].variance_minus, gain,
            )
            metrics["benchmark_nbar_lambda1_share"] = (
                math.sinh(bench.metrics["lambda_1"]) ** 2 / bench.report.nbar_total
            )
            metrics["nbar_lambda1_share"] = math.sinh(rows[0].lam) ** 2 / report.nbar_total
        return ScenarioResult(name, report, sq, gain, metrics, eigen=eigen, eigen_rows=rows)

    if name == "PdcHeralding":
        raw = assemble_squeeze_matrix(cfg.coupling)
        sq, gain = _apply_gain(cfg, raw)
        report = state_report(sq)
        metrics = {"nbar_total": report.nbar_total, "calibrated_gain": gain}
        metrics.update(pair_dominance_metrics(sq))
        # reference: benchmark waists at the same extended basis, same target
        ref_cfg = _pdc_coupling(PDC_PUMP_WAIST, cfg.coupling.collection.waist_w0,
                                cfg.coupling.basis, medium=cfg.coupling.medium)
        ref_raw = assemble_squeeze_matrix(ref_cfg)
        ref_sq, _ = scale_to_mean_photons(ref_raw, cfg.n_target)
        ref_metrics = pair_dominance_metrics(ref_sq)
        metrics["benchmark_diag_dominance"] = ref_metrics["diag_dominance"]
        metrics["benchmark_n00_share"] = ref_metrics["n00_share"]
        nbar_diag = report.nbar_matrix.diagonal().real
        beyond = [
            nbar_diag[i]
            for i, idx in enumerate(sq.basis.order)
            if idx.p > 2
        ]
        metrics["occupation_beyond_p2"] = float(np.sum(beyond))
        return ScenarioResult(name, report, sq, gain, metrics)

    if name == "WaistScan":
        grid = cfg.scan_grid or {
            "pump": list(DEFAULT_GRID_RANGE),
            "collection": list(DEFAULT_GRID_RANGE),
            "points": DEFAULT_GRID_POINTS,
        }
        points = int(grid.get("points", DEFAULT_GRID_POINTS))
        pump_vals = np.geomspace(grid["pump"][0], grid["pump"][1], points)
        coll_vals = np.geomspace(grid["collection"][0], grid["collection"][1], points)
        metric = np.full((points, points), np.nan)
        failures = []
        for i, wp in enumerate(pump_vals):
            for j, wc in enumerate(coll_vals):
                try:
                    cell = _pdc_coupling(float(wp), float(wc), cfg.coupling.basis,
                                         medium=cfg.coupling.medium)
                    raw = assemble_squeeze_matrix(cell)
                    sq, _ = scale_to_mean_photons(raw, cfg.n_target)
                    metric[i, j] = pair_dominance_metrics(sq)["figure_metric"]
                except (QuadratureError, ValueError, np.linalg.LinAlgError) as exc:
                    # a numerical failure of this cell: record it and scan on
                    failures.append({"pump": float(wp), "collection": float(wc),
                                     "error": str(exc)})
        best = np.unravel_index(np.nanargmax(metric), metric.shape)
        scan = {
            "pump_waists": pump_vals.tolist(),
            "collection_waists": coll_vals.tolist(),
            "metric": metric.tolist(),
            "argmax_pump": float(pump_vals[best[0]]),
            "argmax_collection": float(coll_vals[best[1]]),
            "argmax_metric": float(metric[best]),
            "failures": failures,
        }
        island = scan_island(scan)
        scan["island"] = island
        # a representative report: the best cell
        cell = _pdc_coupling(scan["argmax_pump"], scan["argmax_collection"],
                             cfg.coupling.basis, medium=cfg.coupling.medium)
        sq, gain = scale_to_mean_photons(assemble_squeeze_matrix(cell), cfg.n_target)
        report = state_report(sq)
        metrics = {
            "nbar_total": report.nbar_total,
            "argmax_in_island": float(island["argmax_in_island"]),
            "island_threshold": island["threshold"],
        }
        return ScenarioResult(name, report, sq, gain, metrics, scan=scan)

    raise ValueError(f"unknown scenario {name!r}")


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Run a scenario, with the convergence re-check where configured."""
    result = _run_single(cfg)
    if cfg.convergence_check and cfg.name in (
        "PsrSinglePhoton",
        "PsrPCrosstalk",
        "FwmTwoPhoton",
        "PdcBenchmark",
    ):
        result.convergence = _convergence_check(cfg)
    return result
