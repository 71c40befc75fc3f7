"""Report emission and loading: CSV matrices, JSON reports, run manifests.

Every number is written with the shortest round-trip decimal representation,
so re-running a scenario from a manifest's resolved configuration reproduces
all data files byte for byte.  The digits come from orjson's Ryu writer,
laid out as ``float.__repr__`` lays them out (see ``_row_reprs``), so the
bytes are those ``csv.writer`` and ``json.dumps`` write.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import fields, replace
from operator import add, attrgetter
from pathlib import Path
from types import GeneratorType
from typing import get_type_hints

import numpy as np
import orjson

from . import __version__ as _version
from .coupling import CouplingConfig, InteractionType, PumpSpec
from .modes import BeamGeometry, FieldError, ModeBasis, _finite_number
from .scenarios import ScenarioConfig, default_config
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
    """A config file is refused: ``key`` is the offending key path, ``reason`` says why."""

    def __init__(self, key: str, reason: str):
        super().__init__(f"{key}: {reason}")
        self.key = key
        self.reason = reason


def _row_reprs(matrix):
    """Each row of a real matrix as the list of its ``float.__repr__`` strings.

    ``float.__repr__`` is what both ``csv.writer`` and ``json.dumps`` write
    for a float, so one formatting pass serves every file.  orjson's Ryu
    writer gives the same shortest round-trip digits in the same layout,
    about 15 times faster, except in three bands: |x| >= 1e16 (``1e16`` for
    ``1e+16``), 1e-9 <= |x| < 1e-4 (``1e-7`` for ``1e-07``, ``0.00001`` for
    ``1e-05``), and nan and inf (``null``).  The mask reaches a decade past
    1e16 and 1e-9; at 1e-4 both writers switch layout on the same value.  A
    masked string that ends in a one-digit negative exponent gets its zero
    pad; every other one, [1e-5, 1e-4) included, is written with ``repr``.
    """
    for row in np.asarray(matrix, dtype=float):
        values = row.tolist()
        strs = orjson.dumps(values)[1:-1].decode().split(",")
        size = np.abs(row)
        for i in np.flatnonzero(~(size < 1e15) | ((size >= 1e-10) & (size < 1e-4))).tolist():
            s = strs[i]
            strs[i] = f"{s[:-1]}0{s[-1]}" if s[-3:-1] == "e-" else repr(values[i])
        yield strs


def _csv_field(value) -> str:
    """``value`` exactly as ``csv.writer`` writes it inside a row."""
    buf = io.StringIO()
    # the empty second field keeps csv.writer from quoting a lone empty field
    csv.writer(buf, lineterminator="\n").writerow([value, ""])
    return buf.getvalue()[:-2]


def _long_lines(head: str, cols: list, strs: list) -> str:
    """The long-CSV lines of one matrix row; ``head`` and each of ``cols`` end with a comma."""
    return head + ("\n" + head).join(map(add, cols, strs)) + "\n"


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


def _json_ready(value, path: str):
    """The JSON values that ``value``, at key path ``path``, is written as.

    Numpy scalars become Python ones, and tuples and 1-D arrays lists; a
    2-D array, a report matrix, is passed on as it is, for the writer to
    stream.  The first non-finite number, in the order the values are
    visited, raises ValueError naming its key path: every JSON document a
    run writes goes through here, so none holds one.
    """
    if isinstance(value, dict):
        return {key: _json_ready(item, _key(path, key)) for key, item in value.items()}
    if isinstance(value, np.ndarray) and value.ndim == 2:
        finite = np.isfinite(value).all()
    elif isinstance(value, (list, tuple, np.ndarray)):
        return [_json_ready(item, path) for item in value]
    elif isinstance(value, (bool, np.bool_)):
        return bool(value)
    elif isinstance(value, (int, np.integer)):
        return int(value)
    elif isinstance(value, (float, np.floating)):
        value = float(value)
        finite = math.isfinite(value)
    else:
        return value
    if not finite:
        raise ValueError(f"non-finite value in {path}; a report must hold only finite numbers")
    return value


def read_matrix_csv(path):
    """Read a matrix CSV back as (matrix, labels)."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    labels = rows[0][1:]
    matrix = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    return matrix, labels


def _complex_to_lists(matrix: np.ndarray):
    matrix = np.asarray(matrix, dtype=complex)
    return {"re": matrix.real.tolist(), "im": matrix.imag.tolist()}


def _complex_from_lists(obj) -> np.ndarray:
    return np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)


def _report_block(report: StateReport) -> dict:
    """Each StateReport field under its name, a matrix as a complex array.

    The matrices come last, so a non-finite statistic is named before the
    matrices it was formed from.
    """
    values = {field.name: getattr(report, field.name) for field in fields(StateReport)}
    matrices = {name: np.asarray(value, dtype=complex)
                for name, value in values.items() if np.ndim(value) == 2}
    return {**{name: value for name, value in values.items() if name not in matrices},
            **matrices}


def report_to_dict(report: StateReport) -> dict:
    """The ``report`` block of ``report.json``: a matrix as ``{"re": rows, "im": rows}``.

    A non-finite number raises ValueError naming its field.
    """
    return {name: _complex_to_lists(value) if isinstance(value, np.ndarray) else value
            for name, value in _json_ready(_report_block(report), "report").items()}


def _report_field(kind, value):
    """A StateReport field of type ``kind`` from its JSON ``value``."""
    if kind is not np.ndarray:
        return kind(value)
    if isinstance(value, dict):  # a complex matrix
        return _complex_from_lists(value)
    return np.array(value, dtype=float)


def report_from_dict(data: dict) -> StateReport:
    """The StateReport whose ``report`` block ``data`` is."""
    return StateReport(**{name: _report_field(kind, data[name])
                          for name, kind in get_type_hints(StateReport).items()})


def _key(path: str, key: str) -> str:
    """The path of ``key`` in the section at ``path`` (``""`` at the top level)."""
    return f"{path}.{key}" if path else key


def _number(value, path: str):
    """``value``, or each item of a list, as a float if it is a finite number,
    and as it is otherwise: the object that holds it checks it."""
    if isinstance(value, list):
        return [_number(v, path) for v in value]
    return float(value) if _finite_number(value) else value


def _integer(value, path: str):
    """``value`` as an int if it is an integral float, and as it is otherwise."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _as_given(value, path: str):
    """``value`` as it is: the object that holds it checks it."""
    return value


def _interaction(value, path: str):
    """The InteractionType ``value`` names, and ``value`` as it is otherwise."""
    return next((kind for kind in InteractionType if kind.value == value), value)


def _numbers(value, path: str) -> list:
    """A list of finite numbers, or the one-row nested list the manifest writes."""
    if isinstance(value, list) and len(value) == 1 and isinstance(value[0], list):
        value = value[0]
    if not (isinstance(value, list) and all(map(_finite_number, value))):
        raise ConfigError(path, f"must be a list of finite numbers, got {value!r}")
    return [float(v) for v in value]


def _bare(pump) -> bool:
    """Whether a pump section is a bare geometry rather than ``{"geometry", "coefficients"}``."""
    return isinstance(pump, dict) and not {"geometry", "coefficients"} & set(pump)


def _pump(value, path: str) -> dict:
    """A pump section, in either of its two forms."""
    return _section(value, path, _GEOMETRY if _bare(value) else _PUMP)


# One table per config section: each key and the reader of its JSON value,
# or the table of the section it holds.  The writer emits the same keys.
_GEOMETRY = dict.fromkeys(("wavelength", "waist_w0", "focus_z"), _number)
_PUMP = {"geometry": _GEOMETRY, "coefficients": {"re": _numbers, "im": _numbers}}
_COUPLING = {"interaction": _interaction, "single_pump": _as_given, "cell_length": _number,
             "pump": _pump, "pump2": _pump, "collection": _GEOMETRY}
_BASIS = {"ell_max": _integer, "p_max": _integer}
_GRID = {"pump": _number, "collection": _number, "points": _integer}
_TOP = {"scenario": _as_given, "n_target": _number, "seed_gain": _number,
        "convergence_check": _as_given, "basis": _BASIS, "coupling": _COUPLING, "grid": _GRID}
# the table each config object is written from
_TABLES = {ScenarioConfig: _TOP, CouplingConfig: _COUPLING, ModeBasis: _BASIS,
           PumpSpec: _PUMP, BeamGeometry: _GEOMETRY, dict: _GRID}
# config key -> the attribute that holds its value, where the two differ
_ATTRIBUTE = {"scenario": "name", "grid": "scan_grid", "basis": "coupling.basis", "pump": "pump1"}
_KEY = {attribute: key for key, attribute in _ATTRIBUTE.items()}
# the keys whose null is the field's None ("not set"); no other key is written as null
_NULLABLE = frozenset({"seed_gain", "pump2", "coefficients"})


def _section(spec, path: str, readers: dict) -> dict:
    """Each key of the JSON object ``spec`` at ``path``, read by its entry in ``readers``.

    Keys left out are left out of the result; an unknown key, or a section
    that is not an object, raises ConfigError naming its path.
    """
    if not isinstance(spec, dict):
        raise ConfigError(path or "config", f"must be a JSON object, got {spec!r}")
    read = {}
    for key, value in spec.items():
        if key not in readers:
            raise ConfigError(_key(path, key), "unknown key")
        reader = readers[key]
        if value is None and key in _NULLABLE:
            read[key] = None
        elif isinstance(reader, dict):
            read[key] = _section(value, _key(path, key), reader)
        else:
            read[key] = reader(value, _key(path, key))
    return read


def _written(value, path: str):
    """A config object, or one of its fields, as the JSON that reads back to it."""
    table = _TABLES.get(type(value))
    if table is None:
        if isinstance(value, InteractionType):
            return value.value
        if isinstance(value, np.ndarray):  # pump coefficients, as one-row re/im lists
            return _complex_to_lists(np.atleast_2d(value))
        return _json_ready(value, path)
    out = {}
    for key in table:
        item = (value.get(key) if isinstance(value, dict)
                else attrgetter(_ATTRIBUTE.get(key, key))(value))
        if item is not None or key in _NULLABLE:
            out[key] = _written(item, _key(path, key))
    return out


def resolved_config_dict(cfg) -> dict:
    """Fully-materialized scenario configuration as a JSON-ready dict."""
    return _written(cfg, "resolved_config")


def _built(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a field it refuses is named by its key under ``path``.

    BeamGeometry names ``waist_w0`` when pi*w0 is not above lambda or the
    Rayleigh range pi*w0^2/lambda leaves the float range.  A stock beam
    passes both, so when a geometry section sets the wavelength and not the
    waist, the wavelength failed them.
    """
    try:
        return build(*args, **kwargs)
    except FieldError as exc:
        head, dot, rest = exc.field.partition(".")
        if head not in kwargs and "wavelength" in kwargs:
            head = "wavelength"
        raise ConfigError(_key(path, _KEY.get(head, head) + dot + rest), exc.reason) from exc


def _pump_spec(read: dict, geometry: BeamGeometry, size: int, path: str) -> PumpSpec:
    """The pump of the section read at ``path``, on ``geometry`` where it sets none."""
    if _bare(read):
        return PumpSpec(_built(path, replace, geometry, **read))
    geometry = _built(path + ".geometry", replace, geometry, **read.get("geometry", {}))
    coefficients = read.get("coefficients")
    if coefficients is not None:
        for part in ("re", "im"):
            if len(coefficients.get(part, ())) != size:
                raise ConfigError(f"{path}.coefficients.{part}",
                                  f"must list {size} numbers, one per basis mode")
        coefficients = _complex_from_lists(coefficients)
    return _built(path, PumpSpec, geometry, coefficients)


def _fields(read: dict) -> dict:
    """Values read from a section, keyed by the attributes that hold them."""
    return {_ATTRIBUTE.get(key, key): value for key, value in read.items()}


def scenario_config_from_dict(data: dict) -> ScenarioConfig:
    """Build a fully-resolved ScenarioConfig from a (partial) JSON dict.

    Omitted fields take the named scenario's stock values; a pump's geometry
    defaults to the stock ``pump``'s.  The field values are checked by the
    objects that hold them, and every refusal is a ConfigError naming the key.
    """
    read = _section(data, "", _TOP)
    cfg = _built("", default_config, read.pop("scenario", None), **read.pop("basis", {}))
    base, coupling = cfg.coupling, read.pop("coupling", {})
    if "collection" in coupling:
        coupling["collection"] = _built("coupling.collection", replace, base.collection,
                                        **coupling["collection"])
    for key in ("pump", "pump2"):
        if coupling.get(key) is not None:
            coupling[key] = _pump_spec(coupling[key], base.pump1.geometry, base.basis.size,
                                       f"coupling.{key}")
    if "grid" in read:  # omitted keys keep the stock grid
        read["grid"] = {**(cfg.scan_grid or {}), **read["grid"]}
    coupling = _built("coupling", replace, base, **_fields(coupling))
    return _built("", replace, cfg, coupling=coupling, **_fields(read))


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
    the field and no file is written.  Every run writes the same files but
    ``scan_grid.csv`` and ``oracle_agreement.json``; an earlier run's copy of
    either, which this run did not write, is removed.
    """
    report = result.report
    report_doc = {
        "scenario": result.name,
        "gain": float(result.gain),
        "report": _report_block(report),
        "metrics": result.metrics,
    }
    if result.eigen_rows is not None:  # EigenmodeStats.lam is the table's "lambda"
        report_doc["eigenmodes"] = [
            {"lambda" if name == "lam" else name: value for name, value in vars(row).items()}
            for row in result.eigen_rows
        ]
    if result.convergence is not None:
        report_doc["convergence_check"] = result.convergence
    if result.scan is not None:
        # a failed WaistScan cell is NaN in the grid and null in the JSON
        report_doc["scan"] = {**result.scan, "metric": [
            [v if math.isfinite(v) else None for v in row] for row in result.scan["metric"]]}
    report_doc = _json_ready(report_doc, "")
    oracle_doc = _json_ready(result.oracle_agreement, "oracle_agreement")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def create(name: str):
        written.append(name)
        return open(out / name, "w", encoding="utf-8")

    def write_json(name: str, doc):
        with create(name) as handle:
            handle.writelines(_json_text(doc))
            handle.write("\n")

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
    block = report_doc["report"]
    for name, matrix in block.items():
        if not isinstance(matrix, np.ndarray):
            continue
        real = _row_reprs(matrix.real)
        if name in _CSV_STEMS:
            real = csv_pair(_CSV_STEMS[name], real)
        block[name] = {
            "re": _json_rows(real, _MATRIX_LEVEL),
            "im": _json_rows(_row_reprs(matrix.imag), _MATRIX_LEVEL),
        }
    write_json("report.json", report_doc)
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
    if oracle_doc is not None:
        write_json("oracle_agreement.json", oracle_doc)

    write_json("manifest.json", {
        "scenario": result.name,
        "tool_version": _version,
        "wall_time_s": float(wall_time_s),
        "resolved_config": resolved_config_dict(cfg),
        "outputs": sorted(written),
        "convergence_check": report_doc.get("convergence_check"),
    })
    for name in {"scan_grid.csv", "oracle_agreement.json"}.difference(written):
        (out / name).unlink(missing_ok=True)
    return written


def load_report(out_dir) -> StateReport:
    """Load the StateReport back from an output directory (exact round trip)."""
    data = json.loads((Path(out_dir) / "report.json").read_text(encoding="utf-8"))
    return report_from_dict(data["report"])
