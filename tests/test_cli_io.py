import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import lgsqueeze
from lgsqueeze.cli import main as cli_main
from lgsqueeze.coupling import CouplingConfig
from lgsqueeze.fock_oracle import COMPARED_FIELDS
from lgsqueeze.report_io import (
    _ATTRIBUTE,
    _TABLES,
    ConfigError,
    emit_result,
    load_report,
    read_matrix_csv,
    resolved_config_dict,
    scenario_config_from_dict,
)
from lgsqueeze.scenarios import SCENARIO_NAMES, ScenarioConfig, default_config, run_scenario

SCHEMA_DIR = Path(lgsqueeze.__file__).parent / "schemas"
SRC = str(Path(lgsqueeze.__file__).resolve().parent.parent)


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


# a JSON integer of more digits than int() converts; json.dumps cannot write
# one, so a config names it by this string and the test writes its digits
LONG_INTEGER = "<4401-digit integer>"
# keys a config once took and no longer does
REMOVED_KEYS = ("chi_profile", "gain_scale", "medium", "rayleigh_zR", "strength")
PSR_RAYLEIGH = default_config("PsrSinglePhoton").coupling.collection.rayleigh_zR
# a single-beam state past the oracle's cut: 3 modes at n_target 2.66
PSR_OUT_OF_CUT = {
    "scenario": "PsrSinglePhoton", "basis": {"ell_max": 1, "p_max": 0},
    "convergence_check": False, "n_target": 2.6645114782104375,
    "coupling": {"pump": {"coefficients": {
        "re": [0.7013084337165251, -0.3293988135623379, 0.09903412119212711],
        "im": [-0.22587167745282133, 0.06204588697882083, -0.5787809935503772]}}},
}
# the refusal of a calibrated run; a seeded one names the seed gain's knob
ORACLE_REFUSAL = (r"error: --oracle: \w+ deviates from the truncated-Fock oracle by \S+, against "
                  r"its truncation bound \S+ \(accepted up to 0.001\); a lower n_target or a "
                  r"smaller basis brings the state within the oracle's cut\n")


class TestConfigParsing:
    def test_each_section_table_lists_its_class_fields(self):
        # a key per init field, named through _ATTRIBUTE where the two differ.
        # The one exception is the basis: CouplingConfig holds it, but its
        # key sits at the top level, beside the scenario name
        for cls, table in _TABLES.items():
            if cls is dict:  # the scan grid, a plain dict
                continue
            attributes = {_ATTRIBUTE.get(key, key) for key in table} - {"coupling.basis"}
            fields = {f.name for f in dataclasses.fields(cls) if f.init}
            if cls is CouplingConfig:
                fields.remove("basis")
            assert attributes == fields, cls.__name__
        assert _ATTRIBUTE["basis"] == "coupling.basis" and "basis" in _TABLES[ScenarioConfig]

    def test_minimal_benchmark_defaults(self):
        cfg = scenario_config_from_dict({"scenario": "PdcBenchmark"})
        assert cfg.coupling.pump1.geometry.wavelength == pytest.approx(0.405)
        assert cfg.coupling.pump1.geometry.waist_w0 == pytest.approx(200.0)
        assert cfg.coupling.collection.wavelength == pytest.approx(0.810)
        assert cfg.coupling.collection.waist_w0 == pytest.approx(200.0)
        assert cfg.n_target == 1.0

    def test_scan_grid_echo(self):
        cfg = scenario_config_from_dict(
            {
                "scenario": "WaistScan",
                "grid": {"pump": [50, 800], "collection": [50, 800], "points": 8},
            }
        )
        assert cfg.scan_grid == {
            "pump": [50.0, 800.0],
            "collection": [50.0, 800.0],
            "points": 8,
        }

    def test_negative_waist_names_key_path(self):
        with pytest.raises(ConfigError) as err:
            scenario_config_from_dict(
                {"scenario": "PdcBenchmark",
                 "coupling": {"collection": {"waist_w0": -1}}}
            )
        assert err.value.key == "coupling.collection.waist_w0"
        assert str(err.value).startswith("coupling.collection.waist_w0: ")

    def test_unknown_keys_rejected_with_path(self):
        with pytest.raises(ConfigError) as err:
            scenario_config_from_dict({"scenario": "PdcBenchmark", "bogus": 1})
        assert "bogus" in str(err.value)
        with pytest.raises(ConfigError) as err:
            scenario_config_from_dict(
                {"scenario": "PdcBenchmark", "coupling": {"mediun": {}}}
            )
        assert "coupling.mediun" in str(err.value)

    def test_pump2_of_a_two_pump_coupling_is_kept(self):
        cfg = scenario_config_from_dict(
            {"scenario": "PdcBenchmark",
             "coupling": {"single_pump": False, "pump2": {"waist_w0": 10.0}}})
        assert cfg.coupling.pump2.geometry.waist_w0 == pytest.approx(10.0)

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            scenario_config_from_dict({"scenario": "Nope"})

    def test_grid_only_for_scan(self):
        with pytest.raises(ConfigError):
            scenario_config_from_dict(
                {"scenario": "PdcBenchmark",
                 "grid": {"pump": [50, 800], "collection": [50, 800]}}
            )

    @pytest.mark.parametrize("config", [
        *({"scenario": name} for name in SCENARIO_NAMES),
        {"scenario": "FwmTwoPhoton", "basis": {"ell_max": 1, "p_max": 0},
         "coupling": {"pump": {"coefficients": {"re": [0.0, 0.6, 0.0], "im": [0.0, 0.0, 0.8]}},
                      "pump2": {"geometry": {"waist_w0": 60.0},
                                "coefficients": {"re": [0.8, 0.0, 0.0],
                                                 "im": [0.0, 0.0, -0.6]}}}},
    ], ids=[*SCENARIO_NAMES, "pump-coefficients-and-pump2"])
    def test_resolved_config_round_trip(self, config):
        resolved = resolved_config_dict(scenario_config_from_dict(config))
        back = scenario_config_from_dict(resolved)
        assert resolved_config_dict(back) == resolved


@pytest.mark.parametrize(
    "config, key",
    [
        ({"basis": 3}, "basis"),
        ({"coupling": []}, "coupling"),
        ({"coupling": {"medium": "long"}}, "coupling.medium"),
        ({"coupling": {"pump": 2}}, "coupling.pump"),
        ({"coupling": {"pump": {"geometry": None}}}, "coupling.pump.geometry"),
        ({"basis": {"p_max": 1.5}}, "basis.p_max"),
        ({"seed_gain": float("inf")}, "seed_gain"),
        ({"n_target": float("nan")}, "n_target"),
        ({"coupling": {"medium": {"strength": 1.0}}}, "coupling.medium"),  # removed
        ({"coupling": {"collection": {"waist_w0": True}}}, "coupling.collection.waist_w0"),
        ({"scenario": "WaistScan", "grid": 8}, "grid"),
        ({"scenario": "WaistScan",
          "grid": {"pump": [50, 800], "collection": [50, 800], "points": 2.7}},
         "grid.points"),
        ({"scenario": "WaistScan",
          "grid": {"pump": [50, "800"], "collection": [50, 800]}}, "grid.pump"),
        ({"scenario": "WaistScan", "seed_gain": 0.5}, "seed_gain"),
        ({"coupling": {"pump": {"coefficients": [1, 0]}}}, "coupling.pump.coefficients"),
        ({"coupling": {"pump": {"coefficients": {"re": [1.0], "im": [0.0]}}}},
         "coupling.pump.coefficients.re"),
        ({"coupling": {"pump": {"coefficients": {"re": [1.0] + [0.0] * 8,
                                                 "im": [float("nan")] * 9}}}},
         "coupling.pump.coefficients.im"),
        ({"coupling": {"pump": {"coefficients": {"re": [0.5] * 9, "im": [0.0] * 9}}}},
         "coupling.pump.coefficients"),
        ({"coupling": {"pump2": {"coefficients": {"re": [1.0]}}}},
         "coupling.pump2.coefficients.re"),
        ({"scenario": "PdcEigenPump",
          "coupling": {"pump": {"coefficients": {"re": [1.0] + [0.0] * 8, "im": [0.0] * 9}}}},
         "coupling.pump.coefficients"),
        ({"scenario": "PdcEigenPump", "convergence_check": True}, "convergence_check"),
        ({"scenario": "PdcEigenPump", "convergence_check": "false"}, "convergence_check"),
        ({"convergence_check": "false"}, "convergence_check"),
        ({"scenario": "PdcBenchmark", "coupling": {"single_pump": "false"}},
         "coupling.single_pump"),
        ({"basis": {"ell_max": -1}}, "basis.ell_max"),
        ({"basis": {"p_max": -3}}, "basis.p_max"),
        ({"scenario": "PdcHeralding", "basis": {"p_max": -1}}, "basis.p_max"),
        ({"n_target": 0}, "n_target"),
        ({"scenario": "WaistScan",
          "grid": {"pump": [800, 50], "collection": [50, 800]}}, "grid.pump"),
        ({"scenario": "WaistScan", "grid": {"points": 1}}, "grid.points"),
        ({"scenario": "Nope"}, "scenario"),
        ({"scenario": "PdcBenchmark", "coupling": {"pump2": {"waist_w0": 10.0}}},
         "coupling.pump2"),
        ({"scenario": "PdcBenchmark", "coupling": {"medium": {"strength": 0}}},
         "coupling.medium"),  # removed
        ({"scenario": "PdcBenchmark", "coupling": {"medium": {"gain_scale": 1e10}}},
         "coupling.medium"),
        # its points x points float64 metric grid would take 728 TiB
        ({"scenario": "WaistScan", "grid": {"points": 10000000}}, "grid.points"),
        ({"basis": {"ell_max": LONG_INTEGER}}, "basis.ell_max"),
        ({"n_target": LONG_INTEGER}, "n_target"),
        # a Rayleigh range pi*w0^2/lambda that is not finite and > 0
        ({"coupling": {"collection": {"waist_w0": 1e300}}}, "coupling.collection.waist_w0"),
        ({"coupling": {"collection": {"waist_w0": 1e-300}}}, "coupling.collection.waist_w0"),
        ({"scenario": "PdcHeralding", "coupling": {"pump": {"waist_w0": 1e300}}},
         "coupling.pump.waist_w0"),
        ({"scenario": "PdcHeralding", "coupling": {"pump": {"waist_w0": 1e-300}}},
         "coupling.pump.waist_w0"),
        # removed keys: chi_profile and rayleigh_zR each at the one value it once
        # took, gain_scale at a value its rule refused
        ({"coupling": {"medium": {"chi_profile": "uniform"}}}, "coupling.medium"),
        ({"scenario": "PdcBenchmark", "coupling": {"medium": {"gain_scale": -1.0}}},
         "coupling.medium"),
        ({"coupling": {"collection": {"rayleigh_zR": PSR_RAYLEIGH}}},
         "coupling.collection.rayleigh_zR"),
        ({"coupling": {"pump": {"geometry": {"rayleigh_zR": PSR_RAYLEIGH}}}},
         "coupling.pump.geometry.rayleigh_zR"),
        ({"coupling": {"pump": {"rayleigh_zR": PSR_RAYLEIGH}}}, "coupling.pump.rayleigh_zR"),
        # a Rayleigh range out of range is named by the key the config set: the
        # wavelength when it sets the wavelength alone, else the waist
        ({"scenario": "PdcBenchmark", "coupling": {"collection": {"wavelength": 1e300}}},
         "coupling.collection.wavelength"),
        ({"scenario": "PdcBenchmark", "coupling": {"collection": {"waist_w0": 1e300}}},
         "coupling.collection.waist_w0"),
        ({"scenario": "PdcBenchmark",
          "coupling": {"collection": {"wavelength": 1e-200, "waist_w0": 1e150}}},
         "coupling.collection.waist_w0"),
        ({"scenario": "PdcHeralding", "coupling": {"pump": {"wavelength": 1e-300}}},
         "coupling.pump.wavelength"),
        ({"coupling": {"pump": {"geometry": {"wavelength": 1e300, "focus_z": 1.0}}}},
         "coupling.pump.geometry.wavelength"),
        # a seed gain sets the scale, so a calibration target beside it is refused
        ({"basis": {"ell_max": 0, "p_max": 1}, "n_target": 5, "seed_gain": 1e-4}, "n_target"),
        ({"scenario": "PdcBenchmark", "n_target": 0.5, "seed_gain": 1.0}, "n_target"),
        # the cell is centred at z = 0: a far focus is named by the key that set it
        ({"scenario": "PdcBenchmark", "coupling": {"collection": {"focus_z": 1e300}}},
         "coupling.collection.focus_z"),
        ({"scenario": "PdcBenchmark", "coupling": {"pump": {"geometry": {"focus_z": 1e300}}}},
         "coupling.pump.geometry.focus_z"),
        ({"scenario": "PdcBenchmark", "coupling": {"pump": {"focus_z": 1e300}}},
         "coupling.pump.focus_z"),
        ({"scenario": "PdcBenchmark", "coupling": {"cell_length": 1e300}},
         "coupling.cell_length"),
        # 1/w^2 overflows at the focus of a waist whose Rayleigh range is in range
        ({"coupling": {"collection": {"wavelength": 1e-300, "waist_w0": 1e-155}}},
         "coupling.collection.waist_w0"),
        # a seed gain that takes the coupling matrix past the float range
        ({"scenario": "PdcBenchmark", "seed_gain": 1e308}, "seed_gain"),
        # drives on ell = +1 and ell = 0 feed no block of a same-ell interaction
        *(({"scenario": name, "basis": {"ell_max": 1, "p_max": 0},
            "coupling": {"pump": {"coefficients": {"re": [0, 0, 1], "im": [0, 0, 0]}},
                         "pump2": {"coefficients": {"re": [0, 1, 0], "im": [0, 0, 0]}}}},
           "coupling.pump.coefficients") for name in ("PsrPCrosstalk", "PsrSinglePhoton")),
    ],
)
def test_bad_config_exits_2_naming_key(tmp_path, capsys, config, key):
    path = tmp_path / "bad.json"
    # json.dumps writes Infinity/NaN, which json.load reads back
    text = json.dumps({"scenario": "PsrSinglePhoton", **config})
    path.write_text(text.replace(json.dumps(LONG_INTEGER), "1" * 4401))
    assert cli_main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: "), err
    if key.endswith(REMOVED_KEYS):
        assert err == f"error: {key}: unknown key\n", err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "args, name",
    [
        ({"basis": {"ell_max": 1000000}}, "basis.ell_max"),
        ({"basis": {"p_max": 1000000}}, "basis.p_max"),
        (["--scenario", "PsrSinglePhoton", "--lmax", "1000000"], "--lmax"),
        (["--scenario", "PsrSinglePhoton", "--pmax", "1000000"], "--pmax"),
        # fits at p_max 2, not at the 20 radial orders PdcHeralding resolves
        ({"scenario": "PdcHeralding", "basis": {"ell_max": 1000}}, "basis.ell_max"),
        (["--scenario", "PdcHeralding", "--lmax", "1000"], "--lmax"),
        # past the float range: the refusal divides the exact byte count, not a float
        ({"basis": {"ell_max": 10 ** 320}}, "basis.ell_max"),
        (["--scenario", "PsrSinglePhoton", "--lmax", str(10 ** 320)], "--lmax"),
    ],
)
def test_oversized_basis_exits_2_before_listing_modes(tmp_path, capsys, monkeypatch,
                                                      args, name):
    import lgsqueeze.modes
    import lgsqueeze.scenarios

    listed = []
    real = lgsqueeze.modes.build_basis

    def spy(ell_max, p_max):
        listed.append((ell_max, p_max))
        return real(ell_max, p_max)

    monkeypatch.setattr(lgsqueeze.modes, "build_basis", spy)
    monkeypatch.setattr(lgsqueeze.scenarios, "build_basis", spy)
    if isinstance(args, dict):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"scenario": "PsrSinglePhoton", **args}))
        args = ["--config", str(path)]
    assert cli_main([*args, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}: basis "), err
    assert all(max(bounds) <= 20 for bounds in listed), listed
    assert not (tmp_path / "o").exists()


@pytest.fixture
def no_run(monkeypatch):
    """``run_scenario`` raises: what a test refuses is refused before any run."""
    import lgsqueeze.scenarios

    def refused(cfg):
        raise AssertionError(f"{cfg.name} ran")

    monkeypatch.setattr(lgsqueeze.scenarios, "run_scenario", refused)


@pytest.mark.parametrize(
    "args, name",
    [
        # its eigenmode pump has a profile on every one of the 441 modes: >= 1.6 GB
        (["--scenario", "PdcEigenPump", "--lmax", "10", "--pmax", "20"], "--lmax"),
        ({"scenario": "PdcEigenPump", "basis": {"ell_max": 10, "p_max": 20}},
         "basis.ell_max"),
    ],
)
def test_eigen_pump_basis_counts_its_pump_profiles(tmp_path, capsys, no_run, args, name):
    if isinstance(args, dict):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(args))
        args = ["--config", str(path)]
    assert cli_main([*args, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}: basis "), err


@pytest.mark.parametrize("argv", [
    ["--scenario", "PdcBenchmark"],
    ["--scenario", "PsrSinglePhoton", "--lmax", "1", "--pmax", "1"],
])
def test_oracle_on_a_large_basis_exits_2_before_the_run(tmp_path, capsys, no_run, argv):
    assert cli_main([*argv, "--oracle", "--out", str(tmp_path / "o")]) == 2
    assert "oracle" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, value", [("--lmax", "-1"), ("--pmax", "-3")])
@pytest.mark.parametrize("scenario", ["PsrSinglePhoton", "PdcHeralding"])
def test_negative_basis_flag_exits_2_naming_it(tmp_path, capsys, scenario, flag, value):
    assert cli_main(["--scenario", scenario, flag, value,
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: must be >= 0, got {value}")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "bounds, pump_profiles",
    [((1, 2), 1), ((1, 20), 1), ((2, 4), 1), ((10, 20), 1), ((1, 2), 9), ((4, 8), 81)],
    ids=["stock", "heralding", "convergence", "large-basis", "eigen-pump", "eigen-pump-4-8"])
def test_used_bases_fit_the_assembly_limit(bounds, pump_profiles):
    from lgsqueeze.coupling import check_basis_size

    check_basis_size(*bounds, pump_profiles=pump_profiles)


def test_config_pump_counts_its_pump_profiles(tmp_path, capsys, no_run):
    # 441 equal coefficients: 0.15 GiB of overlaps, 1.64 GiB with their profiles
    coefficients = {"re": [1.0 / 21.0] * 441, "im": [0.0] * 441}
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"scenario": "PdcBenchmark",
                                "basis": {"ell_max": 10, "p_max": 20},
                                "coupling": {"pump": {"coefficients": coefficients}}}))
    assert cli_main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: basis.ell_max: basis "), err
    assert not (tmp_path / "o").exists()


def test_basis_flags_count_the_config_pump_profiles(tmp_path, capsys, no_run):
    # 9 pump profiles at ell_max 179, p_max 20: 1.02 GiB; one profile fits
    path = tmp_path / "pump.json"
    path.write_text(json.dumps({"scenario": "PdcBenchmark", "coupling": {"pump": {
        "coefficients": {"re": [1.0 / 3.0] * 9, "im": [0.0] * 9}}}}))
    assert cli_main(["--config", str(path), "--lmax", "179", "--pmax", "20",
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --lmax: basis "), err
    assert not (tmp_path / "o").exists()


def _one_mode_pump(path, basis: dict, mode: str):
    """A PdcBenchmark config over ``basis`` whose pump is the single mode labelled ``mode``."""
    from lgsqueeze.modes import build_basis

    labels = build_basis(basis["ell_max"], basis["p_max"]).labels()
    re = [float(label == mode) for label in labels]
    path.write_text(json.dumps({"scenario": "PdcBenchmark", "basis": basis, "coupling": {
        "pump": {"coefficients": {"re": re, "im": [0.0] * len(re)}}}}))


@pytest.mark.parametrize("flags, mode, flag", [
    (["--pmax", "0"], "l=0,p=1", "--pmax"),
    (["--lmax", "0"], "l=1,p=0", "--lmax"),
    (["--lmax", "0", "--pmax", "0"], "l=0,p=1", "--pmax"),
])
def test_pump_outside_the_flag_basis_names_the_flag(tmp_path, capsys, no_run, flags, mode,
                                                     flag):
    _one_mode_pump(tmp_path / "pump.json", {"ell_max": 1, "p_max": 2}, mode)
    assert cli_main(["--config", str(tmp_path / "pump.json"), *flags,
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: pump coefficient on mode {mode} lies outside "), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("basis, mode", [
    ({"ell_max": 0, "p_max": 5}, "l=0,p=5"),
    ({"ell_max": 3, "p_max": 0}, "l=3,p=0"),
])
def test_pump_outside_the_rerun_basis_names_the_rerun(tmp_path, capsys, basis, mode):
    # the run holds the pump; the convergence re-run at ell_max 2, p_max 4 does not,
    # and no flag set that basis
    _one_mode_pump(tmp_path / "pump.json", basis, mode)
    assert cli_main(["--config", str(tmp_path / "pump.json"),
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: convergence_check: pump coefficient on mode {mode} lies outside "
                   "the ell_max=2, p_max=4 basis of the re-run\n"), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags", [[], ["--seed-gain", "0.1"]], ids=["calibrated", "seed-gain"])
def test_drives_that_leave_the_baseline_zero_exit_2(tmp_path, capsys, flags):
    # full cross talk feeds the (+1, 0) and (0, +1) blocks of net OAM 1, but
    # FwmTwoPhoton also analyses its DegenerateSingleBeam baseline, which that
    # net OAM leaves zero, whether its gain is calibrated or seeded
    config = {"scenario": "FwmTwoPhoton", "basis": {"ell_max": 1, "p_max": 0},
              "coupling": {"pump": {"coefficients": {"re": [0, 0, 1], "im": [0, 0, 0]}},
                           "pump2": {"coefficients": {"re": [0, 1, 0], "im": [0, 0, 0]}}}}
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(config))
    assert cli_main(["--config", str(path), "--out", str(tmp_path / "o"), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: coupling.pump.coefficients: leave xi zero: "), err
    assert "DegenerateSingleBeam" in err and "the baseline FwmTwoPhoton calibrates on" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("scenario, blocks", [
    ("FwmTwoPhoton", "DegenerateSingleBeam, the baseline FwmTwoPhoton calibrates on"),
    ("PsrSinglePhoton", "DegenerateSingleBeam"),
    ("PsrPCrosstalk", "PCrosstalkOnly"),
])
def test_a_zero_feed_set_by_pump2_alone_names_pump2(tmp_path, capsys, scenario, blocks):
    # the stock pump is the Gaussian l = 0 mode; only pump2's (1, 2) mode
    # carries the net OAM 1 that leaves xi zero, so the refusal names pump2
    config = {"scenario": scenario, "coupling": {"pump2": {"coefficients": {
        "re": [0] * 8 + [1], "im": [0] * 9}}}}
    path = tmp_path / "pump2.json"
    path.write_text(json.dumps(config))
    assert cli_main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == ("error: coupling.pump2.coefficients: leave xi zero: the drives' net OAM 1 "
                   f"feeds no block of {blocks}\n"), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("scenario, key, value", [
    ("PdcBenchmark", "coupling.pump.coefficients", [math.nan] + [0.0] * 8),
    ("PdcBenchmark", "coupling.pump.coefficients", [0.6, 0.8]),
    ("PdcBenchmark", "coupling.pump.coefficients", [0.5] + [0.0] * 8),
    ("PdcEigenPump", "coupling.pump.coefficients", [1.0] + [0.0] * 8),
    ("WaistScan", "coupling.pump.coefficients", [1.0] + [0.0] * 8),
    ("PdcBenchmark", "coupling.collection.waist_w0", -1.0),
    ("PdcBenchmark", "coupling.collection.focus_z", math.nan),
    ("PdcBenchmark", "coupling.pump.geometry.wavelength", math.inf),
    ("PdcBenchmark", "coupling.pump.geometry.waist_w0", 0.0),
    ("PdcBenchmark", "coupling.cell_length", 0.0),
    ("PdcBenchmark", "coupling.pump.geometry.focus_z", 1e300),
], ids=["nan", "wrong-shape", "not-unit-norm", "eigen-pump-own-pump", "waist-scan-own-pump",
        "collection-waist", "collection-focus-nan", "pump-wavelength-inf", "pump-waist",
        "cell-length", "pump-focus-far"])
def test_pump_rules_hold_in_python_and_in_config_files(tmp_path, capsys, no_run, scenario,
                                                        key, value):
    # the field Python refuses is the last segment of the key a config file names;
    # a file's coefficients of the wrong length or with a NaN are refused one
    # level down, at their "re" list
    from lgsqueeze.modes import FieldError

    def rebuilt(obj, attributes, new):
        """``obj`` with the field at ``attributes`` set to ``new``, each owner rebuilt."""
        head, *rest = attributes
        return replace(obj, **{head: rebuilt(getattr(obj, head), rest, new) if rest else new})

    coefficients = key.endswith(".coefficients")
    attributes = key.replace("pump.", "pump1.").split(".")
    with pytest.raises(FieldError) as err:
        rebuilt(default_config(scenario), attributes, np.array(value) if coefficients else value)
    assert err.value.field.split(".")[-1] == attributes[-1]
    config = {"re": value, "im": [0.0] * len(value)} if coefficients else value
    for part in reversed(key.split(".")):
        config = {part: config}
    path = tmp_path / "field.json"
    # json.dumps writes NaN and Infinity, which json.load reads back
    path.write_text(json.dumps({"scenario": scenario, **config}))
    assert cli_main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith(f"error: {key}: ") or coefficients and stderr.startswith(
        f"error: {key}.re: "), stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("pump", ["pump", "pump2"])
def test_unknown_pump_key_exits_2_naming_key(tmp_path, capsys, pump):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"scenario": "PsrSinglePhoton",
         "coupling": {pump: {"geometry": {"waist_w0": 80.0}, "bogus": 1}}}))
    assert cli_main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"coupling.{pump}.bogus" in capsys.readouterr().err


@pytest.fixture(scope="module")
def emitted(tmp_path_factory, pdc_benchmark):
    out = tmp_path_factory.mktemp("emit")
    cfg = default_config("PdcBenchmark")
    files = emit_result(pdc_benchmark, cfg, out, wall_time_s=1.0)
    return out, files, pdc_benchmark


class TestEmission:

    def test_expected_files_written(self, emitted):
        out, files, _ = emitted
        for stem in ("var_x1", "var_x2", "cross_covariance", "nbar_matrix",
                     "pair_abs", "pair_arg"):
            assert (out / f"{stem}.csv").exists()
            assert (out / f"{stem}_long.csv").exists()
        assert (out / "report.json").exists()
        assert (out / "manifest.json").exists()

    def test_matrix_csv_round_trip(self, emitted):
        out, _, result = emitted
        matrix, labels = read_matrix_csv(out / "var_x1.csv")
        assert labels == result.report.mode_labels
        assert np.array_equal(matrix, np.asarray(result.report.var_X1).real)

    def test_long_format_rows(self, emitted):
        out, _, result = emitted
        lines = (out / "nbar_matrix_long.csv").read_text().strip().splitlines()
        n = len(result.report.mode_labels)
        assert lines[0] == "row,col,value"
        assert len(lines) == 1 + n * n

    def test_report_json_round_trip(self, emitted):
        out, _, result = emitted
        loaded = load_report(out)
        assert np.array_equal(loaded.var_X1, np.asarray(result.report.var_X1))
        assert np.array_equal(loaded.pair_matrix, np.asarray(result.report.pair_matrix))
        assert loaded.nbar_total == result.report.nbar_total

    def test_eigen_table_sorted(self, emitted):
        out, _, _ = emitted
        doc = json.loads((out / "report.json").read_text())
        lams = [row["lambda"] for row in doc["eigenmodes"]]
        assert lams == sorted(lams, reverse=True)

    def test_schema_validation(self, emitted):
        out, _, _ = emitted
        jsonschema.validate(json.loads((out / "report.json").read_text()),
                            load_schema("report.schema.json"))
        manifest = json.loads((out / "manifest.json").read_text())
        jsonschema.validate(manifest, load_schema("manifest.schema.json"))
        # a manifest written while the medium was a section of its own is refused
        coupling = manifest["resolved_config"]["coupling"]
        coupling["medium"] = {"cell_length": coupling.pop("cell_length"), "center_z": 0.0}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(manifest, load_schema("manifest.schema.json"))

    def test_vacuum_report_identity_quarter(self, tmp_path):
        from lgsqueeze.coupling import InteractionType
        from lgsqueeze.modes import build_basis
        from lgsqueeze.scenarios import ScenarioResult
        from lgsqueeze.squeeze_core import SqueezeMatrix, state_report

        basis = build_basis(0, 1)
        sq = SqueezeMatrix(xi=np.zeros((2, 2)), basis=basis,
                           interaction=InteractionType.FULL_CROSSTALK)
        result = ScenarioResult("PdcBenchmark", state_report(sq), sq, 0.0)
        emit_result(result, default_config("PdcBenchmark"), tmp_path)
        matrix, _ = read_matrix_csv(tmp_path / "var_x1.csv")
        assert np.array_equal(matrix, np.eye(2) / 4)


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def test_emitted_bytes_match_json_and_csv_writers(tmp_path):
    """Every file equals what json.dumps and csv.writer make of the same values."""
    from lgsqueeze.eigenmodes import EigenmodeStats
    from lgsqueeze.report_io import report_to_dict
    from lgsqueeze.scenarios import ScenarioResult
    from lgsqueeze.squeeze_core import StateReport

    # a value from each band _row_reprs writes with repr: 1e-9 <= |x| < 1e-4, |x| >= 1e16
    real = np.array([-0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2, -1.5, 1 / 3, 0.0, 2.5e-300,
                     3e-5, -2.5e-9, 1e20, 1e-7, -1e-4, 9.999999999999999e-05, -1e15])
    real = real.reshape(4, 4)
    cplx = real + 1j * real[::-1]
    labels = ["l=0,p=0", 'say "hi"', "plain", "a,b"]
    report = StateReport(
        var_X1=cplx, var_X2=real, scalar_var=(0.1 + 0.2, -0.0), cross_cov=cplx.T,
        nbar_matrix=real.T, nbar_total=1e16, number_variance=5e-324,
        number_covariance=1e-05, pair_matrix=1j * cplx,
        squeezing_db_per_mode=np.array([-0.0, 1e-05, 1e16]), mode_labels=labels,
    )
    eigen_rows = [EigenmodeStats(lam=0.1 + 0.2, variance_minus=1e-05,
                                 variance_plus=1e16, nbar=-0.0, theta=5e-324)]
    # a failed scan cell: NaN in memory and in scan_grid.csv, null in report.json
    scan = {"pump_waists": [50.0, 0.1 + 0.2, 3e-5], "collection_waists": [1e16, 1e-05, 1e-07],
            "metric": [[float("nan"), 1.0, -2.5e-9], [-0.0, 5e-324, 1e20], [3e-5, -1e-7, 0.5]],
            "failures": []}
    metrics = {"ratio": 1e-05, "flag": True}
    convergence = {"basis": "ell_max=2,p_max=4", "nbar_total": 1e16}
    result = ScenarioResult("WaistScan", report, None, 0.1 + 0.2, metrics,
                            eigen_rows=eigen_rows, scan=scan, convergence=convergence)
    emit_result(result, default_config("WaistScan"), tmp_path)

    doc = {
        "scenario": "WaistScan", "gain": 0.1 + 0.2, "report": report_to_dict(report),
        "metrics": metrics, "convergence_check": convergence,
        "scan": {**scan, "metric": [[None, 1.0, -2.5e-9], [-0.0, 5e-324, 1e20],
                                    [3e-5, -1e-7, 0.5]]},
        "eigenmodes": [{"lambda": 0.1 + 0.2, "variance_minus": 1e-05,
                        "variance_plus": 1e16, "nbar": -0.0, "theta": 5e-324}],
    }
    text = (tmp_path / "report.json").read_text()
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    assert json.loads(text, parse_constant=refuse)["scan"]["metric"][0][0] is None
    matrices = {
        "var_x1": cplx.real, "var_x2": real, "cross_covariance": cplx.T.real,
        "nbar_matrix": real.T, "pair_abs": np.abs(1j * cplx),
        "pair_arg": np.angle(1j * cplx),
    }
    for stem, matrix in matrices.items():
        wide = [["mode"] + labels] + [
            [label] + [repr(float(v)) for v in row] for label, row in zip(labels, matrix)
        ]
        long = [["row", "col", "value"]] + [
            [a, b, repr(float(matrix[i, j]))]
            for i, a in enumerate(labels) for j, b in enumerate(labels)
        ]
        assert (tmp_path / f"{stem}.csv").read_text() == _csv_text(wide), stem
        assert (tmp_path / f"{stem}_long.csv").read_text() == _csv_text(long), stem
    grid = [["pump_waist", "collection_waist", "metric"]] + [
        [repr(p), repr(c), repr(scan["metric"][i][j])]
        for i, p in enumerate(scan["pump_waists"])
        for j, c in enumerate(scan["collection_waists"])
    ]
    assert (tmp_path / "scan_grid.csv").read_text() == _csv_text(grid)


@pytest.mark.parametrize("argv", [
    ["--scenario", "PsrSinglePhoton", "--lmax", "1", "--pmax", "0", "--oracle"],
    ["--scenario", "WaistScan"],
], ids=["oracle", "waist-scan"])
def test_every_json_file_has_the_json_dumps_layout(tmp_path, argv):
    out = tmp_path / "o"
    assert cli_main([*argv, "--out", str(out), "--quiet"]) == 0
    names = sorted(path.name for path in out.glob("*.json"))
    assert len(names) == (3 if "--oracle" in argv else 2), names
    for name in names:
        text = (out / name).read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", name


def _neighbours(values, steps: int):
    """Each of ``values`` with the ``steps`` doubles on either side of it."""
    values = np.asarray(values, dtype=float)
    out = [values]
    below = above = values
    for _ in range(steps):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [below, above]
    return np.concatenate(out)


def test_row_reprs_match_float_repr():
    """Every number string of every data file is ``float.__repr__``'s, whichever writer made it."""
    from lgsqueeze.report_io import _row_reprs

    # pins the installed orjson: a release that lays a number out otherwise fails here
    # before any data file drifts
    rng = np.random.default_rng(16)
    bits = rng.integers(0, 2 ** 64, 1_000_000, dtype=np.uint64).view(np.float64)
    powers = _neighbours(np.ldexp(1.0, np.arange(-1074, 1024)), 1)
    edges = np.array([1e-10, 1e-9, 1e-5, 1e-4, 1e15, 1e16])
    straddling = np.concatenate([_neighbours(edges, 8), *(
        rng.uniform(edge / 2, edge * 2, 2000) for edge in edges)])
    special = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan]
    # the ends of the band whose one-digit exponents are zero-padded, and of
    # the decade [1e-5, 1e-4) that orjson writes as a plain decimal
    band = np.array([9.999999999999999e-10, 1e-9, 9.99e-6, 1e-5, 9.9999e-5])
    assert np.isnan(bits).any()
    for rows in (bits.reshape(1000, 1000), [powers, -powers],
                 [straddling, -straddling], [special], [band, -band]):
        rows = np.asarray(rows, dtype=float)
        for strs, row in zip(_row_reprs(rows), rows.tolist()):
            want = list(map(float.__repr__, row))
            assert strs == want, [(w, s) for w, s in zip(want, strs) if w != s][:5]


def test_emission_holds_one_row_at_a_time(tmp_path):
    """No file's text and no array's string list is alive while a report is written."""
    import tracemalloc

    from lgsqueeze.modes import build_basis
    from lgsqueeze.scenarios import ScenarioResult
    from lgsqueeze.squeeze_core import StateReport

    rng = np.random.default_rng(8)
    basis = build_basis(4, 19)
    n = basis.size
    assert n == 180

    def draw():
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    report = StateReport(
        var_X1=draw(), var_X2=draw(), scalar_var=(0.25, 0.25), cross_cov=draw(),
        nbar_matrix=draw(), nbar_total=1.0, number_variance=2.0, number_covariance=0.5,
        pair_matrix=draw(), squeezing_db_per_mode=rng.standard_normal(n),
        mode_labels=basis.labels(),
    )
    result = ScenarioResult("PdcBenchmark", report, None, 0.5)
    tracemalloc.start()
    try:
        emit_result(result, default_config("PdcBenchmark"), tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "report.json").stat().st_size / 4


class TestCli:
    def test_conflicting_flags(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["--scenario", "PdcBenchmark", "--config", "x.json"])

    def test_missing_flags(self):
        with pytest.raises(SystemExit):
            cli_main([])

    def test_unknown_scenario_exit_code(self, capsys):
        assert cli_main(["--scenario", "Wrong", "--out", "/tmp/x"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"scenario": "PdcBenchmark",
             "coupling": {"collection": {"waist_w0": -1}}}))
        assert cli_main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "coupling.collection" in capsys.readouterr().err

    def test_single_mode_run_with_oracle(self, tmp_path, capsys):
        rc = cli_main([
            "--scenario", "PsrSinglePhoton", "--lmax", "0", "--pmax", "0",
            "--out", str(tmp_path), "--oracle", "--quiet",
        ])
        assert rc == 0
        agreement = json.loads((tmp_path / "oracle_agreement.json").read_text())
        assert agreement["within_bound"]
        schema = load_schema("oracle_agreement.schema.json")
        jsonschema.validate(agreement, schema)
        # every statistic the oracle measures is compared, each by its own name
        assert schema["properties"]["deviations"]["required"] == sorted(COMPARED_FIELDS)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "oracle_agreement.json" in manifest["outputs"]

    @pytest.mark.parametrize("first", [
        ["--scenario", "PsrSinglePhoton", "--lmax", "0", "--pmax", "0", "--oracle"],
        ["--scenario", "WaistScan", "--lmax", "0", "--pmax", "0"],
    ], ids=["oracle", "waist-scan"])
    def test_a_run_leaves_no_file_of_an_earlier_run(self, tmp_path, first):
        # an earlier run's oracle_agreement.json or scan_grid.csv left beside
        # this run's files would read as this run's
        for argv in (first, ["--scenario", "PsrSinglePhoton", "--lmax", "0", "--pmax", "0"]):
            assert cli_main([*argv, "--out", str(tmp_path), "--quiet"]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            manifest["outputs"] + ["manifest.json"])

    @pytest.mark.parametrize("gain, p_max", [("1e-322", "0"), ("0", "1")])
    def test_subnormal_seed_gain_oracle_run_reads_the_vacuum(self, tmp_path, gain, p_max):
        # a gain of 1e-322 gives the oracle an exponent whose 1-norm is
        # subnormal, so 2 / norm overflows; a gain of 0 leaves xi zero, so the
        # oracle keeps both modes.  Each run must still compare finite
        # numbers, print no warning and exit 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli_main([
                "--scenario", "PsrSinglePhoton", "--lmax", "0", "--pmax", p_max,
                "--seed-gain", gain, "--out", str(tmp_path), "--oracle", "--quiet",
            ])
        assert rc == 0
        agreement = json.loads((tmp_path / "oracle_agreement.json").read_text())
        assert agreement["within_bound"]
        assert agreement["truncation_bound"] == agreement["max_deviation"] == 0.0

    @pytest.mark.parametrize("gain", ["1e5", "1e150", "1e306"])
    def test_overflowing_seed_gain_oracle_run_exits_2_before_the_oracle(self, tmp_path, gain):
        # the report is non-finite at these gains; the oracle must not run on
        # it first: a series at 1-norm 1.5e8 ran for minutes at 1e5 and 1e150,
        # and the 1-norm overflowed to inf at 1e306.  Its own process and
        # timeout, so that a run which hangs fails the test
        proc = subprocess.run(
            [sys.executable, "-m", "lgsqueeze", "--scenario", "PsrSinglePhoton", "--lmax",
             "0", "--pmax", "0", "--seed-gain", gain, "--oracle", "--quiet", "--out", "out"],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == ("error: non-finite value in report.scalar_var; a report must "
                               "hold only finite numbers\n")
        assert not (tmp_path / "out").exists()

    def test_two_beam_run_with_oracle(self, tmp_path):
        # 2 modes, 4 oscillators at cut 26: a bound of 4.4e-5
        rc = cli_main([
            "--scenario", "PdcBenchmark", "--lmax", "0", "--pmax", "1",
            "--out", str(tmp_path), "--oracle", "--quiet",
        ])
        assert rc == 0
        agreement = json.loads((tmp_path / "oracle_agreement.json").read_text())
        assert agreement["within_bound"]
        assert agreement["max_deviation"] <= agreement["truncation_bound"] < 1e-3

    @pytest.mark.parametrize("scenario, flags, knob", [
        # 3 modes, 6 oscillators at cut 8: a bound of 8.4e-2, so a deviation
        # of 4.8e-2 under it says little
        ("FwmTwoPhoton", ["--pmax", "2"], "n_target"),
        ("PsrPCrosstalk", ["--pmax", "2"], "n_target"),
        # 34.6 photons on 2 oscillators at cut 300: the bound of 4.6e-3
        # under-reads the var_X1 deviation of 4.9e-2 tenfold, and only the
        # cap refuses the run (at seed gain 0.6 the bound is 3e-14 and it passes)
        ("FwmTwoPhoton", ["--pmax", "0", "--seed-gain", "1"], "--seed-gain"),
    ], ids=["FwmTwoPhoton", "PsrPCrosstalk", "FwmTwoPhoton-seed-gain-1"])
    def test_two_beam_oracle_bound_over_the_cap_exits_2(self, tmp_path, capsys, scenario,
                                                        flags, knob):
        # the files are still written
        rc = cli_main([
            "--scenario", scenario, "--lmax", "0", *flags,
            "--out", str(tmp_path), "--oracle", "--quiet",
        ])
        assert rc == 2
        assert re.fullmatch(ORACLE_REFUSAL.replace("n_target", knob), capsys.readouterr().err)
        agreement = json.loads((tmp_path / "oracle_agreement.json").read_text())
        assert not agreement["within_bound"] and agreement["truncation_bound"] > 1e-3
        assert (tmp_path / "report.json").is_file()

    def test_oracle_deviation_past_its_bound_exits_2(self, tmp_path, capsys):
        # 21.5 photons in the single beam of a 3-mode PSR run: the oracle's
        # cut of 83 is too low, and var_X1 deviates by 0.110 against a bound
        # of 0.060
        path = tmp_path / "config.json"
        path.write_text(json.dumps(PSR_OUT_OF_CUT))
        rc = cli_main(["--config", str(path), "--out", str(tmp_path / "o"), "--oracle",
                       "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert re.fullmatch(ORACLE_REFUSAL, err) and "var_X1 deviates" in err, err
        agreement = json.loads((tmp_path / "o" / "oracle_agreement.json").read_text())
        assert agreement["max_deviation"] > agreement["truncation_bound"]
        assert not agreement["within_bound"]

    @pytest.mark.parametrize("knob", ["n_target", "seed_gain", "--seed-gain"])
    def test_oracle_refusal_names_the_knob_that_set_the_gain(self, tmp_path, capsys, knob):
        # a seeded run ignores n_target, and refuses a config that sets it:
        # the refusal names the flag or config key that set the gain.  A seed
        # gain of 3 puts 6.9e5 photons in the one mode, far past the cut of 300
        config, flags = PSR_OUT_OF_CUT, []
        if knob != "n_target":
            config = {"scenario": "PsrSinglePhoton", "basis": {"ell_max": 0, "p_max": 0}}
            if knob == "seed_gain":
                config["seed_gain"] = 3
            else:
                flags = ["--seed-gain", "3"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        rc = cli_main(["--config", str(path), "--out", str(tmp_path / "o"), "--oracle",
                       "--quiet", *flags])
        assert rc == 2
        assert re.fullmatch(ORACLE_REFUSAL.replace("n_target", re.escape(knob)),
                            capsys.readouterr().err)

    def test_oracle_rejects_large_basis(self, tmp_path, capsys):
        rc = cli_main([
            "--scenario", "PdcBenchmark", "--out", str(tmp_path), "--oracle",
            "--quiet",
        ])
        assert rc == 2
        assert "oracle" in capsys.readouterr().err

    def test_manifest_lists_every_file_written(self, tmp_path):
        for flags in ([], ["--oracle"]):
            out = tmp_path / ("oracle" if flags else "plain")
            rc = cli_main(["--scenario", "PsrSinglePhoton", "--lmax", "0", "--pmax", "0",
                           "--out", str(out), "--quiet"] + flags)
            assert rc == 0
            manifest = json.loads((out / "manifest.json").read_text())
            on_disk = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
            assert manifest["outputs"] == on_disk

    @pytest.mark.parametrize("field", ["metrics", "convergence"])
    def test_non_finite_metric_or_convergence_refused(self, tmp_path, capsys,
                                                      monkeypatch, field):
        from lgsqueeze import scenarios

        def poisoned(cfg):
            result = run_scenario(cfg)
            getattr(result, field)["nbar_total"] = float("nan")
            return result

        monkeypatch.setattr(scenarios, "run_scenario", poisoned)
        out = tmp_path / "o"
        rc = cli_main(["--scenario", "PsrSinglePhoton", "--lmax", "0", "--pmax", "1",
                       "--out", str(out), "--quiet"])
        assert rc == 2
        name = {"metrics": "metrics", "convergence": "convergence_check"}[field]
        assert f"{name}.nbar_total" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("gain, field", [(400, "report.scalar_var"),
                                             (50, "report.squeezing_db_per_mode")])
    def test_non_finite_report_refused(self, tmp_path, capsys, gain, field):
        out = tmp_path / "o"
        rc = cli_main(["--scenario", "PsrSinglePhoton", "--lmax", "0", "--pmax", "1",
                       "--seed-gain", str(gain), "--out", str(out), "--quiet"])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--scenario", "PsrSinglePhoton", "--lmax", "0", "--pmax", "1", "--seed-gain", "400"],
        ["--scenario", "PsrSinglePhoton", "--lmax", "0", "--pmax", "1", "--seed-gain", "50"],
        ["--config", {"scenario": "PsrSinglePhoton", "n_target": 1e8}],
        ["--scenario", "PdcBenchmark", "--lmax", "0", "--pmax", "1", "--seed-gain", "1"],
        ["--config", {"scenario": "PsrSinglePhoton", "basis": {"ell_max": 0, "p_max": 1},
                      "coupling": {"cell_length": 1e-310}}],
        ["--config", {"scenario": "WaistScan", "grid": {"pump": [1e300, 1e301], "points": 2}}],
        ["--config", {"scenario": "WaistScan", "grid": {"pump": [1e-300, 1e-299], "points": 2}}],
        *(["--config", {"scenario": "PsrSinglePhoton", "basis": {"ell_max": 0, "p_max": 0},
                        "coupling": coupling}]
          for coupling in ({"collection": {"focus_z": 1e300}}, {"cell_length": 1e300},
                           {"collection": {"wavelength": 1e300}})),
        ["--config", {"scenario": "PsrSinglePhoton", "basis": {"ell_max": 0, "p_max": 0},
                      "coupling": {"pump": {"wavelength": 1e-300, "waist_w0": 1e-150},
                                   "collection": {"wavelength": 1e-300, "waist_w0": 1e-150},
                                   "cell_length": 1}}],
        ["--scenario", "PdcBenchmark", "--seed-gain", "1e308"],
        ["--scenario", "PsrSinglePhoton", "--lmax", "0", "--pmax", "0", "--seed-gain", "1e308"],
    ], ids=["overflow", "zero-variance", "zero-variance-config", "overflowing-metric",
            "unscalable-matrix", "overflowing-scan-waists", "underflowing-scan-waists",
            "far-medium-centre", "overflowing-cell", "underflowing-rayleigh-square",
            "overflowing-matrix-norm", "overflowing-seed-gain", "overflowing-seed-gain-psr"])
    def test_refused_non_finite_run_prints_only_its_error(self, tmp_path, capsys, argv):
        if argv[0] == "--config":
            path = tmp_path / "run.json"
            path.write_text(json.dumps(argv[1]))
            argv = ["--config", str(path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli_main([*argv, "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    def test_infinite_seed_gain_flag_refused(self, tmp_path, capsys):
        rc = cli_main(["--scenario", "PsrSinglePhoton", "--seed-gain", "inf",
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "--seed-gain" in capsys.readouterr().err

    def test_seed_gain_flag_refuses_the_config_n_target(self, tmp_path, capsys):
        cfg_path = tmp_path / "target.json"
        cfg_path.write_text(json.dumps({"scenario": "PsrSinglePhoton", "n_target": 5,
                                        "basis": {"ell_max": 0, "p_max": 1}}))
        rc = cli_main(["--config", str(cfg_path), "--seed-gain", "1e-4",
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: n_target: is not used: seed_gain sets the gain\n")
        assert not (tmp_path / "o").exists()

    def test_unscalable_matrix_exits_2_naming_n_target(self, tmp_path, capsys):
        cfg_path = tmp_path / "weak.json"
        cfg_path.write_text(json.dumps({"scenario": "PsrSinglePhoton",
                                        "basis": {"ell_max": 0, "p_max": 1},
                                        "coupling": {"cell_length": 1e-310}}))
        rc = cli_main(["--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error: n_target: no finite scale of the matrix reaches 1.0; "), err
        assert not (tmp_path / "o").exists()

    def test_seed_gain_flag_refused_for_waist_scan(self, tmp_path, capsys):
        rc = cli_main(["--scenario", "WaistScan", "--seed-gain", "0.5",
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "--seed-gain" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_overflowing_gain_names_statistic_and_gain(self, tmp_path, capsys):
        rc = cli_main(["--scenario", "PdcBenchmark", "--lmax", "0", "--pmax", "1",
                       "--seed-gain", "1", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "eigen_improvement_db" in err and "gain 1" in err, err

    @pytest.mark.parametrize("argv, named", [
        (["--scenario", "PdcEigenPump", "--seed-gain", "0"], "nbar_lambda1_share"),
        (["--scenario", "PdcEigenPump", "--seed-gain", "1e-300"], "nbar_lambda1_share"),
        (["--config", "tiny_gain.json"], "nbar_lambda1_share"),
        (["--scenario", "PdcBenchmark", "--seed-gain", "1e3"], "variance_plus"),
        (["--scenario", "PdcEigenPump", "--seed-gain", "1e3"], "variance_plus"),
        (["--scenario", "PdcHeralding", "--seed-gain", "0"], "--seed-gain: 0.0 gives photon"),
        (["--scenario", "PdcHeralding", "--seed-gain", "1e3"],
         "--seed-gain: 1000.0 gives photon"),
    ])
    def test_extreme_gain_exits_2_naming_the_statistic(self, tmp_path, argv, named):
        # a seed gain whose photon numbers underflow to 0; a tiny n_target
        # calibrates (test_sub_photon_targets_calibrate)
        (tmp_path / "tiny_gain.json").write_text(
            json.dumps({"scenario": "PdcEigenPump", "seed_gain": 1e-200}))
        proc = subprocess.run(
            [sys.executable, "-m", "lgsqueeze", *argv, "--lmax", "0", "--pmax", "1",
             "--out", "out"],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert named in proc.stderr and "Traceback" not in proc.stderr, proc.stderr
        if not named.startswith("--seed-gain"):
            assert "at gain " in proc.stderr, proc.stderr

    def test_degenerate_oracle_check_passes_on_the_excited_mode(self, tmp_path):
        # a Gaussian pump excites only l=0 of this three-mode basis: the oracle
        # runs on that mode alone at cut 300, and the idle l=+-1 modes are held
        # to their exact vacuum values
        rc = cli_main(["--scenario", "PsrSinglePhoton", "--lmax", "1", "--pmax", "0",
                       "--out", str(tmp_path), "--oracle", "--quiet"])
        assert rc == 0
        agreement = json.loads((tmp_path / "oracle_agreement.json").read_text())
        assert agreement["within_bound"]
        assert 0.0 < agreement["max_deviation"] <= agreement["truncation_bound"] < 1e-3

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OUT_DIR", str(tmp_path / "via_env"))
        rc = cli_main(["--scenario", "PsrSinglePhoton", "--lmax", "0",
                       "--pmax", "1", "--quiet"])
        assert rc == 0
        assert (tmp_path / "via_env" / "report.json").exists()


class TestDeterminism:
    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        out1 = tmp_path / "a"
        rc = cli_main(["--scenario", "PsrPCrosstalk", "--out", str(out1), "--quiet"])
        assert rc == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        cfg_path = tmp_path / "resolved.json"
        cfg_path.write_text(json.dumps(manifest["resolved_config"]))
        out2 = tmp_path / "b"
        rc = cli_main(["--config", str(cfg_path), "--out", str(out2), "--quiet"])
        assert rc == 0
        for name in manifest["outputs"]:
            if name == "manifest.json":
                continue  # carries wall time
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_flag_run_replays_from_its_manifest(self, tmp_path):
        # a PdcHeralding basis below the stock p_max 20 replays at that basis
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli_main(["--scenario", "PdcHeralding", "--lmax", "0", "--pmax", "2",
                         "--out", str(out1), "--quiet"]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        cfg_path = tmp_path / "resolved.json"
        cfg_path.write_text(json.dumps(manifest["resolved_config"]))
        assert cli_main(["--config", str(cfg_path), "--out", str(out2), "--quiet"]) == 0
        assert sorted(p.name for p in out2.iterdir()) == sorted(p.name for p in out1.iterdir())
        for name in manifest["outputs"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_manifest_naming_the_removed_strength_exits_2(self, tmp_path, capsys):
        # manifests written before the medium became its length carry its
        # section, with the strength in it before that was removed too
        out = tmp_path / "a"
        assert cli_main(["--scenario", "PsrSinglePhoton", "--lmax", "0", "--pmax", "1",
                         "--out", str(out), "--quiet"]) == 0
        config = json.loads((out / "manifest.json").read_text())["resolved_config"]
        coupling = config["coupling"]
        coupling["medium"] = {"cell_length": coupling.pop("cell_length"), "center_z": 0.0,
                              "strength": 1.0}
        cfg_path = tmp_path / "old.json"
        cfg_path.write_text(json.dumps(config))
        assert cli_main(["--config", str(cfg_path), "--out", str(tmp_path / "b"),
                         "--quiet"]) == 2
        assert capsys.readouterr().err == "error: coupling.medium: unknown key\n"
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_basis_flags_and_keys_agree(self, tmp_path, source):
        if source == "flags":
            args = ["--scenario", "PdcHeralding", "--pmax", "3"]
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"scenario": "PdcHeralding",
                                            "basis": {"p_max": 3}}))
            args = ["--config", str(cfg_path)]
        assert cli_main([*args, "--lmax", "0", "--out", str(tmp_path / "o"), "--quiet"]) == 0
        basis = json.loads((tmp_path / "o" / "manifest.json").read_text())[
            "resolved_config"]["basis"]
        assert basis == {"ell_max": 0, "p_max": 3}

    def test_pump_coefficients_round_trip_through_the_manifest(self, tmp_path):
        config = {"scenario": "PsrSinglePhoton", "basis": {"ell_max": 0, "p_max": 1},
                  "coupling": {"pump": {"coefficients": {"re": [0.6, 0.0],
                                                         "im": [0.0, 0.8]}}}}
        runs = {}
        for name in ("plain", "custom", "again"):
            if name == "again":
                config = json.loads((runs["custom"] / "manifest.json").read_text())[
                    "resolved_config"]
                assert config["coupling"]["pump"]["coefficients"] == {
                    "re": [[0.6, 0.0]], "im": [[0.0, 0.8]]}
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(
                {**config, "coupling": {}} if name == "plain" else config))
            runs[name] = tmp_path / name
            assert cli_main(["--config", str(cfg_path), "--out", str(runs[name]),
                             "--quiet"]) == 0
        report = (runs["custom"] / "report.json").read_bytes()
        assert report != (runs["plain"] / "report.json").read_bytes()
        for path in runs["custom"].iterdir():
            if path.name != "manifest.json":
                assert path.read_bytes() == (runs["again"] / path.name).read_bytes(), path.name

    @pytest.mark.parametrize("pmax, rc", [("2", 0), ("0", 2)])
    def test_basis_flags_keep_pump_coefficients_on_their_modes(self, tmp_path, capsys,
                                                                pmax, rc):
        cfg_path = tmp_path / "pump.json"
        cfg_path.write_text(json.dumps(
            {"scenario": "PsrSinglePhoton", "basis": {"ell_max": 0, "p_max": 1},
             "convergence_check": False,
             "coupling": {"pump": {"coefficients": {"re": [0.6, 0.0], "im": [0.0, 0.8]}}}}))
        out = tmp_path / "o"
        assert cli_main(["--config", str(cfg_path), "--pmax", pmax, "--out", str(out),
                         "--quiet"]) == rc
        if rc == 0:
            pump = json.loads((out / "manifest.json").read_text())[
                "resolved_config"]["coupling"]["pump"]["coefficients"]
            assert pump == {"re": [[0.6, 0.0, 0.0]], "im": [[0.0, 0.8, 0.0]]}
        else:
            assert "l=0,p=1" in capsys.readouterr().err
