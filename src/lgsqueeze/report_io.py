"""Report emission and loading: CSV matrices, JSON reports, run manifests.

Every number is written with the shortest round-trip decimal representation,
so re-running a scenario from a manifest's resolved configuration reproduces
all data files byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import replace
from pathlib import Path
from types import GeneratorType

import numpy as np

from . import __version__ as _version
from .squeeze_core import StateReport

__all__ = [
    "ConfigError",
    "resolved_config_dict",
    "scenario_config_from_dict",
    "emit_result",
    "load_report",
    "report_to_dict",
    "report_from_dict",
    "read_matrix_csv",
]


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key path."""


def _row_reprs(matrix):
    """Each row of a real matrix as the list of its shortest round-trip decimals.

    ``float.__repr__`` is what both ``csv.writer`` and ``json.dumps`` write
    for a finite float, so one formatting pass serves every file.
    """
    for row in np.asarray(matrix, dtype=float):
        yield list(map(float.__repr__, row.tolist()))


def _csv_field(value) -> str:
    """``value`` exactly as ``csv.writer`` writes it inside a row."""
    buf = io.StringIO()
    # the empty second field keeps csv.writer from quoting a lone empty field
    csv.writer(buf, lineterminator="\n").writerow([value, ""])
    return buf.getvalue()[:-2]


def _long_lines(head: str, cols: list, strs: list) -> str:
    """The long-CSV lines of one matrix row; ``head`` and each of ``cols`` end with a comma."""
    return "".join([f"{head}{col}{s}\n" for col, s in zip(cols, strs)])


def _json_rows(rows, level: int):
    """Yield a nested list of ``rows`` as ``json.dumps(indent=2)`` lays it out at ``level``."""
    outer = "\n" + "  " * (level + 1)
    inner = outer + "  "
    sep = "," + inner
    opening = "[" + outer
    for strs in rows:
        yield opening + "[" + inner + sep.join(strs) + outer + "]"
        opening = "," + outer
    yield "\n" + "  " * level + "]"


def _json_text(value, level: int = 0):
    """Yield ``json.dumps(value, indent=2, sort_keys=True)`` nested at ``level``.

    Dicts are laid out here so that a generator inside them, which yields
    its own text at its nesting level, is passed through as it runs;
    everything else goes through ``json.dumps``.
    """
    if isinstance(value, GeneratorType):
        yield from value
        return
    pad = "\n" + "  " * level
    if isinstance(value, dict) and value:
        inner = pad + "  "
        opening = "{" + inner
        for key in sorted(value):
            yield opening + json.dumps(key) + ": "
            yield from _json_text(value[key], level + 1)
            opening = "," + inner
        yield pad + "}"
        return
    yield json.dumps(value, indent=2, sort_keys=True).replace("\n", pad)


def _require_finite(value, path: str) -> None:
    """Raise ValueError naming the first non-finite number under ``path``."""
    if isinstance(value, dict):
        for key, item in value.items():
            _require_finite(item, f"{path}.{key}" if path else key)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _require_finite(item, path)
    elif isinstance(value, (float, np.floating, np.ndarray)):
        if not np.all(np.isfinite(value)):
            raise ValueError(
                f"non-finite value in {path}; a report must hold only finite numbers"
            )


def read_matrix_csv(path):
    """Read a matrix CSV back as (matrix, labels)."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    labels = rows[0][1:]
    matrix = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    return matrix, labels


def _complex_to_lists(matrix: np.ndarray):
    matrix = np.asarray(matrix, dtype=complex)
    return {
        "re": [[float(v.real) for v in row] for row in matrix],
        "im": [[float(v.imag) for v in row] for row in matrix],
    }


def _complex_from_lists(obj) -> np.ndarray:
    return np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)


# complex report matrices, each stored as {"re": ..., "im": ...}
_REPORT_MATRICES = ("var_X1", "var_X2", "cross_cov", "nbar_matrix", "pair_matrix")


def _report_scalars(report: StateReport) -> dict:
    """The report fields other than its complex matrices."""
    return {
        "mode_labels": list(report.mode_labels),
        "scalar_var": [float(report.scalar_var[0]), float(report.scalar_var[1])],
        "nbar_total": float(report.nbar_total),
        "number_variance": float(report.number_variance),
        "number_covariance": float(report.number_covariance),
        "squeezing_db_per_mode": [float(v) for v in report.squeezing_db_per_mode],
    }


def report_to_dict(report: StateReport) -> dict:
    out = _report_scalars(report)
    for name in _REPORT_MATRICES:
        out[name] = _complex_to_lists(getattr(report, name))
    return out


def report_from_dict(data: dict) -> StateReport:
    return StateReport(
        var_X1=_complex_from_lists(data["var_X1"]),
        var_X2=_complex_from_lists(data["var_X2"]),
        scalar_var=(data["scalar_var"][0], data["scalar_var"][1]),
        cross_cov=_complex_from_lists(data["cross_cov"]),
        nbar_matrix=_complex_from_lists(data["nbar_matrix"]),
        nbar_total=data["nbar_total"],
        number_variance=data["number_variance"],
        number_covariance=data["number_covariance"],
        pair_matrix=_complex_from_lists(data["pair_matrix"]),
        squeezing_db_per_mode=np.array(data["squeezing_db_per_mode"], dtype=float),
        mode_labels=list(data["mode_labels"]),
    )


def _geometry_dict(geom) -> dict:
    return {
        "wavelength": float(geom.wavelength),
        "waist_w0": float(geom.waist_w0),
        "focus_z": float(geom.focus_z),
        "rayleigh_zR": float(geom.rayleigh_zR),
    }


def _pump_dict(pump) -> dict:
    coefficients = pump.coefficients
    if coefficients is not None:
        coefficients = _complex_to_lists(np.atleast_2d(coefficients))
    return {"geometry": _geometry_dict(pump.geometry), "coefficients": coefficients}


def resolved_config_dict(cfg) -> dict:
    """Fully-materialized scenario configuration as a JSON-ready dict."""
    coupling = cfg.coupling
    out = {
        "scenario": cfg.name,
        "n_target": float(cfg.n_target),
        "seed_gain": None if cfg.seed_gain is None else float(cfg.seed_gain),
        "convergence_check": bool(cfg.convergence_check),
        "basis": {"ell_max": coupling.basis.ell_max, "p_max": coupling.basis.p_max},
        "coupling": {
            "interaction": coupling.interaction.value,
            "single_pump": bool(coupling.single_pump),
            "medium": {
                "cell_length": float(coupling.medium.cell_length),
                "center_z": float(coupling.medium.center_z),
                "chi_profile": coupling.medium.chi_profile,
                "strength": float(coupling.medium.strength),
                "gain_scale": float(coupling.medium.gain_scale),
            },
            "pump": _pump_dict(coupling.pump1),
            "pump2": None if coupling.pump2 is None else _pump_dict(coupling.pump2),
            "collection": _geometry_dict(coupling.collection),
        },
    }
    if cfg.scan_grid is not None:
        out["grid"] = {
            "pump": [float(v) for v in cfg.scan_grid["pump"]],
            "collection": [float(v) for v in cfg.scan_grid["collection"]],
            "points": int(cfg.scan_grid["points"]),
        }
    return out


def _require_keys(obj: dict, allowed, path: str) -> None:
    """Reject a non-object section ``path`` (``"a.b."``) or an unknown key in it."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path[:-1]} must be a JSON object, got {obj!r} (key: {path[:-1]})")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}{key}")


def _finite(value, path: str) -> float:
    """``value`` as a float if it is a finite number, else ConfigError naming ``path``."""
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            pass
    if not math.isfinite(number):
        raise ConfigError(f"{path} must be a finite number, got {value!r} (key: {path})")
    return number


def _integer(value, path: str) -> int:
    """``value`` as an int if it is integral, else ConfigError naming ``path``."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path} must be an integer, got {value!r} (key: {path})")
    return value


def _boolean(value, path: str) -> bool:
    """``value`` if it is a JSON boolean, else ConfigError naming ``path``."""
    if not isinstance(value, bool):
        raise ConfigError(f"{path} must be true or false, got {value!r} (key: {path})")
    return value


def _geometry_from_dict(data: dict, default, path: str):
    from .modes import BeamGeometry

    fields = ("wavelength", "waist_w0", "focus_z", "rayleigh_zR")
    _require_keys(data, set(fields), path)
    kwargs = {
        "wavelength": default.wavelength,
        "waist_w0": default.waist_w0,
        "focus_z": default.focus_z,
    }
    kwargs.update({key: _finite(data[key], path + key) for key in fields if key in data})
    try:
        return BeamGeometry(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path[:-1]}: {exc}") from exc


def _pump_coefficients(data, size: int, path: str) -> np.ndarray:
    """Complex pump coefficients from ``{"re": [...], "im": [...]}``.

    Each part is a list of ``size`` numbers, or the one-row nested list the
    manifest writes.
    """
    _require_keys(data, {"re", "im"}, path + ".")
    parts = []
    for part in ("re", "im"):
        values = data.get(part)
        if isinstance(values, list) and len(values) == 1 and isinstance(values[0], list):
            values = values[0]
        if not isinstance(values, list) or len(values) != size:
            raise ConfigError(f"{path}.{part} must list {size} numbers, one per basis "
                              f"mode (key: {path}.{part})")
        parts.append([_finite(v, f"{path}.{part}") for v in values])
    return np.array(parts[0]) + 1j * np.array(parts[1])


def _keyed(exc, section: str = "") -> ConfigError:
    """The ConfigError naming the key of the field FieldError ``exc`` refuses in ``section``."""
    field = {"name": "scenario"}.get(exc.field, exc.field).replace("scan_grid", "grid")
    return ConfigError(f"{section}{field}: {exc.reason}")


def scenario_config_from_dict(data: dict):
    """Build a fully-resolved ScenarioConfig from a (partial) JSON dict.

    Unknown keys are rejected with the path of the offending key; omitted
    fields take the named scenario's stock values.  The field values are
    checked by the objects that hold them, and a refusal names the config key.
    """
    from .coupling import FieldError, InteractionType, MediumConfig, PumpSpec
    from .scenarios import default_config

    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(
        data,
        {"scenario", "n_target", "seed_gain", "convergence_check", "basis",
         "coupling", "grid"},
        "",
    )
    name = data.get("scenario")
    basis_spec = data.get("basis", {})
    _require_keys(basis_spec, {"ell_max", "p_max"}, "basis.")
    bounds = [_integer(basis_spec[key], f"basis.{key}") if key in basis_spec else None
              for key in ("ell_max", "p_max")]
    try:
        cfg = default_config(name, *bounds)
    except FieldError as exc:
        raise _keyed(exc) from exc
    changes = {}
    if "n_target" in data:
        changes["n_target"] = _finite(data["n_target"], "n_target")
    if data.get("seed_gain") is not None:
        changes["seed_gain"] = _finite(data["seed_gain"], "seed_gain")
    if "convergence_check" in data:
        changes["convergence_check"] = _boolean(data["convergence_check"],
                                                "convergence_check")

    coupling_spec = data.get("coupling", {})
    _require_keys(
        coupling_spec,
        {"interaction", "single_pump", "medium", "pump", "pump2", "collection"},
        "coupling.",
    )
    base = cfg.coupling
    interaction = base.interaction
    if "interaction" in coupling_spec:
        try:
            interaction = InteractionType(coupling_spec["interaction"])
        except ValueError as exc:
            raise ConfigError(
                f"unknown interaction {coupling_spec['interaction']!r} "
                "(key: coupling.interaction)"
            ) from exc
    med_spec = coupling_spec.get("medium", {})
    _require_keys(
        med_spec,
        {"cell_length", "center_z", "chi_profile", "strength", "gain_scale"},
        "coupling.medium.",
    )
    numbers = {
        key: _finite(med_spec.get(key, getattr(base.medium, key)), f"coupling.medium.{key}")
        for key in ("cell_length", "center_z", "strength", "gain_scale")
    }
    try:
        medium = MediumConfig(
            chi_profile=med_spec.get("chi_profile", base.medium.chi_profile), **numbers
        )
    except FieldError as exc:
        raise _keyed(exc, "coupling.medium.") from exc

    def pump_spec(key: str, default_coefficients) -> PumpSpec:
        # a pump is either {"geometry": {...}, "coefficients": ...} or a bare geometry
        spec = coupling_spec[key]
        path = f"coupling.{key}."
        if not (isinstance(spec, dict) and {"geometry", "coefficients"} & set(spec)):
            return PumpSpec(_geometry_from_dict(spec, base.pump1.geometry, path),
                            default_coefficients)
        _require_keys(spec, {"geometry", "coefficients"}, path)
        geometry, coefficients = base.pump1.geometry, default_coefficients
        if "geometry" in spec:
            geometry = _geometry_from_dict(spec["geometry"], geometry, path + "geometry.")
        if spec.get("coefficients") is not None:
            coefficients = _pump_coefficients(spec["coefficients"], base.basis.size,
                                              path + "coefficients")
        try:
            return PumpSpec(geometry, coefficients)
        except FieldError as exc:
            raise _keyed(exc, path) from exc

    pump1 = pump_spec("pump", base.pump1.coefficients) if "pump" in coupling_spec else base.pump1
    pump2 = None if coupling_spec.get("pump2") is None else pump_spec("pump2", None)
    collection = base.collection
    if "collection" in coupling_spec:
        collection = _geometry_from_dict(coupling_spec["collection"], collection,
                                         "coupling.collection.")
    single_pump = _boolean(coupling_spec.get("single_pump", base.single_pump),
                           "coupling.single_pump")
    try:
        changes["coupling"] = replace(base, interaction=interaction, medium=medium,
                                      pump1=pump1, pump2=pump2, collection=collection,
                                      single_pump=single_pump)
    except FieldError as exc:
        raise _keyed(exc, "coupling.") from exc

    if "grid" in data:
        grid = data["grid"]
        _require_keys(grid, {"pump", "collection", "points"}, "grid.")
        scan_grid = dict(cfg.scan_grid or {})  # omitted keys keep the stock grid
        for axis in ("pump", "collection"):
            if axis in grid:
                rng = grid[axis]
                if not isinstance(rng, (list, tuple)) or len(rng) != 2:
                    raise ConfigError(f"grid.{axis} must be [low, high] (key: grid.{axis})")
                scan_grid[axis] = [_finite(v, f"grid.{axis}") for v in rng]
        if "points" in grid:
            scan_grid["points"] = _integer(grid["points"], "grid.points")
        changes["scan_grid"] = scan_grid
    try:
        return replace(cfg, **changes)
    except FieldError as exc:
        raise _keyed(exc) from exc


# report matrix -> stem of the CSV pair written from its real part
_CSV_STEMS = {
    "var_X1": "var_x1",
    "var_X2": "var_x2",
    "cross_cov": "cross_covariance",
    "nbar_matrix": "nbar_matrix",
}
# report.json nests each matrix part as doc["report"][name]["re"]
_MATRIX_LEVEL = 3


def emit_result(result, cfg, out_dir, wall_time_s: float = 0.0) -> list:
    """Write CSV matrices, the JSON report and the run manifest.

    Returns the list of files written.  The manifest is the only file
    carrying timing information, so all data files are reproducible byte
    for byte from the resolved configuration it embeds.  Every number
    outside the WaistScan grid must be finite: otherwise ValueError names
    the field and no file is written.
    """
    report = result.report
    matrices = {
        name: np.asarray(getattr(report, name), dtype=complex) for name in _REPORT_MATRICES
    }
    report_doc = {
        "scenario": result.name,
        "gain": float(result.gain),
        "report": {**_report_scalars(report), **matrices},
        "metrics": {k: _json_safe(v) for k, v in result.metrics.items()},
    }
    if result.eigen_rows is not None:
        report_doc["eigenmodes"] = [
            {
                "lambda": row.lam,
                "variance_minus": row.variance_minus,
                "variance_plus": row.variance_plus,
                "nbar": row.nbar,
                "theta": row.theta,
            }
            for row in result.eigen_rows
        ]
    if result.convergence is not None:
        report_doc["convergence_check"] = _json_safe(result.convergence)
    _require_finite(report_doc, "")
    _require_finite(result.oracle_agreement, "oracle_agreement")
    if result.scan is not None:
        # a failed WaistScan cell is NaN in the grid and null in the JSON
        scan = _json_safe(result.scan)
        scan["metric"] = [[v if math.isfinite(v) else None for v in row]
                          for row in scan["metric"]]
        report_doc["scan"] = scan

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def create(name: str):
        written.append(name)
        return open(out / name, "w", encoding="utf-8")

    labels = [_csv_field(label) for label in report.mode_labels]
    heads = [label + "," for label in labels]

    def csv_pair(stem: str, rows):
        """Pass ``rows`` on, writing each to ``<stem>.csv`` and ``<stem>_long.csv``."""
        with create(f"{stem}.csv") as square, create(f"{stem}_long.csv") as long:
            square.write(",".join(["mode"] + labels) + "\n")
            long.write("row,col,value\n")
            for head, strs in zip(heads, rows):
                square.write(head + ",".join(strs) + "\n")
                long.write(_long_lines(head, heads, strs))
                yield strs

    # each row is formatted once, and its strings go to every file that holds
    # them while report.json reaches its block: no file's text is ever whole
    for name, matrix in matrices.items():
        real = _row_reprs(matrix.real)
        if name in _CSV_STEMS:
            real = csv_pair(_CSV_STEMS[name], real)
        report_doc["report"][name] = {
            "re": _json_rows(real, _MATRIX_LEVEL),
            "im": _json_rows(_row_reprs(matrix.imag), _MATRIX_LEVEL),
        }
    with create("report.json") as handle:
        handle.writelines(_json_text(report_doc))
        handle.write("\n")
    # on the whole matrix: a per-row ufunc call may take another SIMD path
    for stem, values in (("pair_abs", np.abs), ("pair_arg", np.angle)):
        for _ in csv_pair(stem, _row_reprs(values(report.pair_matrix))):
            pass

    if result.scan is not None:
        scan = result.scan
        (pumps,) = _row_reprs([scan["pump_waists"]])
        (cols,) = _row_reprs([scan["collection_waists"]])
        cols = [col + "," for col in cols]
        with create("scan_grid.csv") as handle:
            handle.write("pump_waist,collection_waist,metric\n")
            for pump, strs in zip(pumps, _row_reprs(scan["metric"])):
                handle.write(_long_lines(pump + ",", cols, strs))
    if result.oracle_agreement is not None:
        with create("oracle_agreement.json") as handle:
            handle.write(json.dumps(result.oracle_agreement, indent=2, sort_keys=True) + "\n")

    manifest = {
        "scenario": result.name,
        "tool_version": _version,
        "wall_time_s": float(wall_time_s),
        "resolved_config": resolved_config_dict(cfg),
        "outputs": sorted(written),
        "convergence_check": _json_safe(result.convergence),
    }
    with create("manifest.json") as handle:
        handle.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return written


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def load_report(out_dir) -> StateReport:
    """Load the StateReport back from an output directory (exact round trip)."""
    data = json.loads((Path(out_dir) / "report.json").read_text(encoding="utf-8"))
    return report_from_dict(data["report"])
