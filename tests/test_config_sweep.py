"""A seeded sweep of the config surface.

Every key of the config reader's section tables is drawn at valid, boundary
and invalid values, one key per draw on a small valid config, and the same
config is given to ``cli.main --config`` and built in Python:

- the CLI exits 0 or 2 and never raises;
- an exit 2 prints one line, ``error: <key path>: <reason>``, naming the
  drawn key or a section that holds it;
- an exit-0 run writes only finite numbers (a failed WaistScan cell is the
  one documented NaN, in ``scan_grid.csv``);
- the config reader and Python construction refuse exactly the same values,
  naming the same field, and build the same config from the others.

The run-time refusals that name no key are listed in ``KNOWN`` with what is
wrong in each; the sweep fails if it meets another one or if one of them no
longer occurs.

Every draw but a basis bound's is built at basis (0, 0), where xi is 1 x 1
and always normal, and a drawn bound keeps every focus at the cell centre
and a Gaussian pump; so the sweep cannot meet the eigenmode scenarios'
refusal of a xi that is not normal, which ``tests/test_coupling.py``
(``TestKeyedRefusal``) pins.
"""

import contextlib
import csv
import io
import json
import math
import random
import re
from dataclasses import replace

import pytest

from lgsqueeze.cli import main as cli_main
from lgsqueeze.coupling import InteractionType, PumpSpec
from lgsqueeze.modes import FieldError, _finite_number
from lgsqueeze.report_io import (_GEOMETRY, _PUMP, _TOP, ConfigError, _pump,
                                 resolved_config_dict, scenario_config_from_dict)
from lgsqueeze.scenarios import _SCENARIOS, SCENARIO_NAMES, default_config

SEED = 20261019
DRAWS_PER_KEY = 6
BIG = 10 ** 400  # an int past the float range
NUMBERS = [0.5, 2, 1.0, 100.0, 0, -0.0, -1.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308,
           True, False, "1", math.nan, math.inf, -math.inf, BIG, [1.0], [[1.0]], [1.0, [2.0]],
           {}, None]
INTEGERS = [0, 1, 2, -1, 1.0, 2.0, 1.5, True, False, "1", math.nan, math.inf, BIG, [1], None,
            10 ** 6]
POINTS = [2, 3, 1, 0, 2.0, 2.5, True, "2", math.nan, BIG, 10 ** 6, [2], None]
BOOLEANS = [True, False, 1, 0, "true", math.nan, [True], {}, None]
INTERACTIONS = [*(t.value for t in InteractionType), "fullcrosstalk", "", 1, True,
                ["FullCrosstalk"], {}, None]
SCENARIOS = [*SCENARIO_NAMES, "NoSuchScenario", "", 1, True, ["PdcBenchmark"], {}, None]
AXES = [[50, 800], [100.0, 200.0], [800, 50], [100, 100], [0, 800], [-1, 800], [1e-300, 200.0],
        [1e-300, 1e-299], [50, 1e300], [50, math.nan], [50, math.inf], [50, BIG], [50, "800"],
        ["a", "b"], [True, 800], [50], [50, 100, 200], [[50], [800]], [50, [800]], 50.0, {},
        None]
VECTORS = [[1.0], [-1.0], [[1.0]], [0.6], [math.nan], [math.inf], ["a"], [True], [], [BIG],
           [1.0, 0.0], [[1.0], [0.0]], [1.0, [0.0]], 1.0, "1", {}, None]
SECTIONS = [3, "x", [], [{}], True, {}, None]
# draws made on every run: the values whose refusal only the config reader
# held, the interaction name Python must refuse as a str, the scan-grid ends,
# and the waist too narrow for the quadrature, the cell so short that xi
# underflows to zero and the photon number and gain near the float range,
# which once warned or were refused without a key
REACHED = [
    ("coupling.cell_length", True, "PsrSinglePhoton"),
    ("coupling.collection.waist_w0", True, "PdcBenchmark"),
    ("coupling.single_pump", 1, "PdcBenchmark"),
    ("coupling.interaction", "FullCrosstalk", "FwmTwoPhoton"),
    ("grid.pump", [1e-300, 200.0], "WaistScan"),
    ("grid.collection", [1e-300, 1e-299], "WaistScan"),
    ("n_target", 1e300, "PsrPCrosstalk"),
    ("coupling.collection.waist_w0", 2, "PsrSinglePhoton"),
    ("coupling.cell_length", 5e-324, "PdcBenchmark"),
    ("coupling.cell_length", 5e-324, "WaistScan"),
    ("n_target", 1.7976931348623157e308, "PdcHeralding"),
    ("seed_gain", 1e300, "PdcBenchmark"),
]
# run-time refusals that name no key: (drawn key pattern, outcome pattern, what is wrong)
KNOWN = []
# the run-time refusals a gain too large or too small for the closed forms
# gives: they name the statistic and the gain (README, --seed-gain)
GAIN_REFUSALS = r"error: (.* is undefined at gain |non-finite value in (report|metrics)\.)"
INTEGER_KEYS = ("ell_max", "p_max", "points")


def key_paths(table, path=""):
    """Every key path under ``table``, each with its section table or None."""
    for key, reader in table.items():
        here = f"{path}.{key}" if path else key
        if isinstance(reader, dict):
            yield here, reader
            yield from key_paths(reader, here)
        elif reader is _pump:  # a bare geometry, or {"geometry", "coefficients"}
            yield here, _PUMP
            yield from key_paths(_GEOMETRY, here)
            yield from key_paths(_PUMP, here)
        else:
            yield here, None


SECTION_KEYS = {key for key, table in key_paths(_TOP) if table is not None}


def pool(key, table):
    """The values drawn for ``key``."""
    last = key.rsplit(".", 1)[-1]
    if table is not None:
        return SECTIONS
    if key in ("grid.pump", "grid.collection"):
        return AXES
    return {"ell_max": INTEGERS, "p_max": INTEGERS, "points": POINTS,
            "convergence_check": BOOLEANS, "single_pump": BOOLEANS,
            "interaction": INTERACTIONS, "scenario": SCENARIOS,
            "re": VECTORS, "im": VECTORS}.get(last, NUMBERS)


def base_config(name):
    """A small valid config of scenario ``name`` (no name for None)."""
    config = {"basis": {"ell_max": 0, "p_max": 0}, "convergence_check": False}
    if name is not None:
        config["scenario"] = name
        if _SCENARIOS[name].scan:
            config["grid"] = {"points": 2}
    return config


def drawn_config(name, key, value):
    """The base config of ``name`` with ``value`` at ``key``."""
    config = base_config(name)
    *sections, last = key.split(".")
    node = config
    for section in sections:
        node = node.setdefault(section, {})
    node[last] = value
    if last in ("re", "im"):  # the other part of the one-mode vector: zero
        node.setdefault("im" if last == "re" else "re", [0.0])
    return config


def floats(value):
    """``value`` as the config reader passes a JSON value on: a finite number as a
    float, a list item by item, anything else as it is."""
    if isinstance(value, list):
        return [floats(v) for v in value]
    return float(value) if _finite_number(value) else value


def as_python(key, value):
    """The Python value a config file's ``value`` at ``key`` stands for."""
    last = key.rsplit(".", 1)[-1]
    if last in INTEGER_KEYS:
        return int(value) if isinstance(value, float) and value.is_integer() else value
    if last == "interaction":
        return next((t for t in InteractionType if t.value == value), value)
    if last == "re" and isinstance(value, list) and len(value) == 1 and isinstance(
            value[0], list):
        value = value[0]  # the one-row list a manifest writes
    return floats(value)


def attributes(key):
    """The attribute path of a ScenarioConfig that holds the value of ``key``."""
    path = key.split(".")
    if path[0] == "grid":
        return ["scan_grid", *path[1:]]
    if path[0] == "coupling" and len(path) > 2 and path[1] in ("pump", "pump2"):
        pump, rest = ("pump1" if path[1] == "pump" else "pump2"), path[2:]
        if rest[0] == "coefficients":
            return ["coupling", pump, "coefficients"]
        return ["coupling", pump, "geometry", *rest[rest[0] == "geometry":]]
    return path


def rebuilt(obj, path, value):
    """``obj`` with ``value`` at the attribute ``path``, each owner rebuilt."""
    head, *rest = path
    if isinstance(obj, dict):  # the scan grid
        return {**obj, head: value}
    if rest:
        inner = getattr(obj, head)
        if inner is None:  # an unset pump2 starts from the first pump's geometry
            inner = PumpSpec(obj.pump1.geometry)
        value = rebuilt(inner, rest, value)
    return replace(obj, **{head: value})


def python_config(name, key, value):
    """The config ``drawn_config`` describes, built in Python."""
    bounds = {"ell_max": 0, "p_max": 0}
    if key.startswith("basis."):
        bounds[key[len("basis."):]] = value
    cfg = default_config(value if key == "scenario" else name, **bounds)
    grid = cfg.scan_grid
    if grid is not None and key != "scenario":
        grid = {**grid, "points": 2}
    cfg = replace(cfg, convergence_check=False, scan_grid=grid)
    if key == "scenario" or key.startswith("basis."):
        return cfg
    return rebuilt(cfg, attributes(key), value)


def refused_field(build):
    """The last segment of the field ``build()`` refuses, or None if it builds."""
    try:
        build()
    except ConfigError as exc:
        field = re.sub(r"\.(re|im)$", "", exc.key)  # {re, im} is one vector's syntax
    except FieldError as exc:
        field = exc.field
    except Exception as exc:  # noqa: BLE001 - a refusal that names no field
        return f"{type(exc).__name__}: {exc}"
    else:
        return None
    last = field.rsplit(".", 1)[-1]
    return {"name": "scenario", "scan_grid": "grid"}.get(last, last)


def parity(name, key, value, text):
    """What differs between the config file ``text`` and Python construction."""
    if key in SECTION_KEYS or key.endswith(".im") or (
            key.endswith(".re") and not isinstance(value, list)):
        return None  # a section, or no vector of its own: JSON syntax only the reader reads
    read = refused_field(lambda: scenario_config_from_dict(json.loads(text)))
    python = as_python(key, value)
    built = refused_field(lambda: python_config(name, key, python))
    if key.endswith("wavelength") and built == "waist_w0":
        # BeamGeometry names waist_w0 for a Rayleigh range out of range; a config
        # section that sets the wavelength and no waist names the wavelength
        built = "wavelength"
    if read != built:
        return f"parity: the config file refuses {read}, Python refuses {built}"
    if read is None:
        resolved = resolved_config_dict(scenario_config_from_dict(json.loads(text)))
        if resolved_config_dict(python_config(name, key, python)) != resolved:
            return "parity: the config file and Python build different configs"
    if key.endswith("interaction") and isinstance(value, str):
        raw = refused_field(lambda: python_config(name, key, value))
        if raw != "interaction":
            return f"parity: the interaction name as a str is refused as {raw}"
    return None


def finite_outputs(out):
    """The first non-finite number an exit-0 run wrote, or None."""
    def refuse(constant):
        raise ValueError(constant)

    def number(cell):
        try:
            return float(cell)
        except ValueError:  # a mode label
            return 0.0

    for path in sorted(out.iterdir()):
        text = path.read_text()
        try:
            if path.suffix == ".json":
                json.loads(text, parse_constant=refuse)
            elif path.name != "scan_grid.csv":  # a failed cell's NaN is documented
                for row in list(csv.reader(io.StringIO(text)))[1:]:
                    if not all(math.isfinite(number(cell)) for cell in row):
                        raise ValueError(row)
        except ValueError as exc:
            return f"non-finite output in {path.name}: {exc}"
    return None


def cli_outcome(key, config_path, out):
    """What is wrong with the CLI run of ``config_path``, or None."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["--config", str(config_path), "--out", str(out), "--quiet"])
    except Exception as exc:  # noqa: BLE001 - a traceback is the finding
        return f"traceback: {type(exc).__name__}: {exc}"
    lines = err.getvalue().splitlines()
    if code == 0:
        return finite_outputs(out)
    if code != 2 or len(lines) != 1:
        return f"exit {code}: {lines}"
    parts = key.split(".")
    named = [".".join(parts[:i]) for i in range(1, len(parts) + 1)]
    path = lines[0].partition(": ")[2].partition(": ")[0]
    if path in named or path.startswith(key + "."):  # a key the drawn section lacks
        return None
    if key in ("n_target", "seed_gain") and re.match(GAIN_REFUSALS, lines[0]):
        return None
    return lines[0]


def draws():
    """(key, value, scenario) of every draw: seeded, then the ones always made."""
    rng = random.Random(SEED)
    made = []
    for key, table in key_paths(_TOP):
        values = pool(key, table)
        names = ([None] if key == "scenario" else
                 ["WaistScan"] if key.startswith("grid") else SCENARIO_NAMES)
        for _ in range(DRAWS_PER_KEY if table is None else 2):
            made.append((key, rng.choice(values), rng.choice(names)))
    return made + REACHED


def test_every_key_is_refused_by_name_and_alike_in_python(tmp_path):
    findings = []
    for i, (key, value, name) in enumerate(draws()):
        text = json.dumps(drawn_config(name, key, value))
        path = tmp_path / f"{i}.json"
        path.write_text(text)
        finding = cli_outcome(key, path, tmp_path / str(i)) or parity(name, key, value, text)
        if finding is not None:
            findings.append((key, repr(value), name, finding))
    explained = {finding: [known for known in KNOWN if re.fullmatch(known[0], finding[0])
                           and re.match(known[1], finding[3])] for finding in findings}
    unexplained = [finding for finding, known in explained.items() if not known]
    assert unexplained == [], "\n".join(map(str, unexplained))
    met = {known[2] for matches in explained.values() for known in matches}
    assert [known[2] for known in KNOWN if known[2] not in met] == []


@pytest.mark.parametrize("name, key, value, named", [
    ("PsrSinglePhoton", "coupling.collection.waist_w0", 2, "coupling.collection.waist_w0"),
    ("PdcBenchmark", "coupling.pump.waist_w0", 1, "coupling.pump"),
    ("PdcBenchmark", "coupling.pump.geometry.waist_w0", 1, "coupling.pump"),
    ("FwmTwoPhoton", "coupling.pump2.waist_w0", 1, "coupling.pump2"),
    # every cell of the scan refused by the waist its grid axis set
    ("WaistScan", "grid.collection", [1, 2], "grid.collection"),
])
def test_a_waist_the_quadrature_cannot_resolve_is_refused_by_key(
        tmp_path, capsys, name, key, value, named):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(drawn_config(name, key, value)))
    assert cli_main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: {re.escape(named)}: a waist of \S+ um gives the coupling's "
                        r"shortest Rayleigh range, .* um cell \(residual estimate .*\)\n", err)


def cli_exit(tmp_path, capsys, config):
    """The exit status and stderr of ``cli.main --config`` on ``config``."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rc = cli_main(["--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
    return rc, capsys.readouterr().err


PDC_00 = {"scenario": "PdcBenchmark", "basis": {"ell_max": 0, "p_max": 0}}
NOT_PARAXIAL = (r"waist_w0=\S+ and wavelength=\S+ are not paraxial: pi\*w0 must exceed the "
                r"wavelength, for a far-field half-angle lambda/\(pi\*w0\) below 1 rad")


@pytest.mark.parametrize("config, named", [
    ({**PDC_00, "coupling": {"pump": {"waist_w0": 1e-60}}}, "coupling.pump.waist_w0"),
    ({**PDC_00, "coupling": {"pump": {"waist_w0": 1e-75}}}, "coupling.pump.waist_w0"),
    ({**PDC_00, "coupling": {"collection": {"waist_w0": 1e-76}}},
     "coupling.collection.waist_w0"),
    # the stock waist at a wavelength the config set alone
    ({**PDC_00, "coupling": {"collection": {"wavelength": 1000}}},
     "coupling.collection.wavelength"),
    ({"scenario": "WaistScan", "grid": {"collection": [0.1, 200.0]}}, "grid.collection"),
], ids=["pump-1e-60", "pump-1e-75", "collection-1e-76", "collection-wavelength", "scan-grid"])
def test_a_waist_that_is_not_paraxial_is_refused_by_key(tmp_path, capsys, config, named):
    rc, err = cli_exit(tmp_path, capsys, config)
    assert rc == 2 and re.fullmatch(rf"error: {re.escape(named)}: (\S+: )?{NOT_PARAXIAL}\n",
                                    err), err


def test_the_paraxial_bound_is_pi_w0_equal_to_the_wavelength(tmp_path, capsys):
    # pi*w0 = lambda*(1 -+ 1e-9) for the 0.405 um pump in a 1 um cell
    below, above = (0.405 * (1.0 + s * 1e-9) / math.pi for s in (-1, 1))
    config = {**PDC_00, "coupling": {"cell_length": 1}}
    config["coupling"]["pump"] = {"waist_w0": below}
    rc, err = cli_exit(tmp_path, capsys, config)
    assert rc == 2 and re.fullmatch(rf"error: coupling.pump.waist_w0: {NOT_PARAXIAL}\n", err), err
    config["coupling"]["pump"] = {"waist_w0": above}
    assert cli_exit(tmp_path, capsys, config) == (0, "")


@pytest.mark.parametrize("coupling, named", [
    ({"collection": {"wavelength": 1e-153, "waist_w0": 1e-152}}, "coupling.collection.waist_w0"),
    ({"pump": {"wavelength": 1e-153, "waist_w0": 1e-152}}, "coupling.pump"),
    ({"single_pump": False, "pump2": {"wavelength": 1e-153, "waist_w0": 1e-152}},
     "coupling.pump2"),
    # two beams fail: the first of collection, pump, pump2 is named
    ({"pump": {"wavelength": 1e-153, "waist_w0": 1e-152},
      "collection": {"wavelength": 1e-153, "waist_w0": 1e-152}}, "coupling.collection.waist_w0"),
], ids=["collection", "pump", "pump2", "collection-first"])
def test_a_cell_end_refusal_names_the_beam(tmp_path, capsys, coupling, named):
    rc, err = cli_exit(tmp_path, capsys, {**PDC_00, "coupling": coupling})
    assert rc == 2
    assert err == (f"error: coupling.cell_length: 93084.22677303091 puts the width or curvature "
                   f"at a cell end of the beam of {named}, a waist of 1e-152 um, out of the "
                   "finite, nonzero floats\n"), err
