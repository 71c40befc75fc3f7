"""A seeded sweep of whole runs against the truncated-Fock oracle.

Each draw is a config of a few modes sent through ``cli.main --config …
--oracle``, so assembly, calibration, the closed forms and the oracle run
together on the matrices real configs give.  A draw picks:

- a scenario and a basis of at most 3 modes;
- complex pump coefficients over the basis in about 60% of the draws whose
  scenario takes them;
- an off-centre collection focus in half the PdcHeralding draws;
- ``n_target`` log-uniform on [1e-3, 3.2].

Every draw must either exit 0 with ``within_bound`` true and
``max_deviation`` within the oracle's 1e-3 cap, or exit 2 with one line,
``error: <key>: <reason>``, and no traceback.  A state too large for the
oracle's cut is refused naming ``--oracle``; a config a run cannot take is
refused naming its key.
"""

import contextlib
import io
import json
import math
import random
import re

from lgsqueeze.cli import main as cli_main
from lgsqueeze.fock_oracle import ORACLE_CAP
from lgsqueeze.scenarios import _SCENARIOS, SCENARIO_NAMES, scenario_basis

SEED = 36
DRAWS = 40
BASES = [(0, 0), (0, 1), (0, 2), (1, 0)]  # 1, 2, 3 and 3 modes
KEYED = re.compile(r"error: [\w.-]+: \S.*")


def drawn_config(rng):
    """One config of a few modes, drawn from ``rng``."""
    name = rng.choice(SCENARIO_NAMES)
    ell_max, p_max = rng.choice(BASES)
    config = {"scenario": name, "basis": {"ell_max": ell_max, "p_max": p_max},
              "convergence_check": False,
              "n_target": 10.0 ** rng.uniform(-3.0, math.log10(3.2))}
    coupling = config["coupling"] = {}
    if _SCENARIOS[name].pump == "config" and rng.random() < 0.6:
        size = scenario_basis(name, ell_max, p_max).size
        parts = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(size)]
        norm = math.sqrt(sum(abs(c) ** 2 for c in parts))
        coupling["pump"] = {"coefficients": {"re": [c.real / norm for c in parts],
                                             "im": [c.imag / norm for c in parts]}}
    if name == "PdcHeralding" and rng.random() < 0.5:
        coupling["collection"] = {"focus_z": rng.uniform(-2000.0, 2000.0)}
    if name == "WaistScan":
        config["grid"] = {"points": 2}
    return config


def outcome(config, tmp_path, i):
    """What is wrong with the ``--oracle`` run of ``config``, or None."""
    path = tmp_path / f"{i}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / str(i)
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli_main(["--config", str(path), "--out", str(out), "--oracle", "--quiet"])
    except Exception as exc:  # noqa: BLE001 - a traceback is the finding
        return f"traceback: {type(exc).__name__}: {exc}"
    lines = err.getvalue().splitlines()
    if code == 0:
        agreement = json.loads((out / "oracle_agreement.json").read_text())
        if agreement["within_bound"] and agreement["max_deviation"] <= ORACLE_CAP:
            return None
        return f"exit 0 with {agreement}"
    if code == 2 and len(lines) == 1 and KEYED.fullmatch(lines[0]):
        return None
    return f"exit {code}: {lines}"


def test_drawn_runs_agree_with_the_oracle_or_are_refused_by_key(tmp_path):
    rng = random.Random(SEED)
    findings = []
    for i in range(DRAWS):
        config = drawn_config(rng)
        finding = outcome(config, tmp_path, i)
        if finding is not None:
            findings.append((config, finding))
    assert findings == [], "\n".join(map(str, findings))
