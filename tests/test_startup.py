"""What a run imports, and the ``python -m lgsqueeze`` entry point."""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lgsqueeze
from lgsqueeze import cli

SRC = str(Path(lgsqueeze.__file__).resolve().parent.parent)
SCIPY_PARTS = ("scipy.linalg", "scipy.optimize", "scipy.sparse", "scipy.sparse.linalg")


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def loaded_after_run(tmp_path, *argv):
    """The scipy subpackages in ``sys.modules`` after one ``cli.main`` run."""
    script = (
        "import json, sys\n"
        "from lgsqueeze import cli\n"
        f"assert cli.main({list(argv)!r} + ['--out', 'out', '--quiet']) == 0\n"
        f"print(json.dumps([m for m in {SCIPY_PARTS!r} if m in sys.modules]))\n"
    )
    proc = run_python(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


class TestImportSurface:
    def test_psr_run_loads_no_scipy_linalg_optimize_or_sparse(self, tmp_path):
        assert loaded_after_run(tmp_path, "--scenario", "PsrSinglePhoton") == set()

    def test_pdc_run_loads_neither_optimize_nor_sparse(self, tmp_path):
        loaded = loaded_after_run(tmp_path, "--scenario", "PdcBenchmark")
        assert not loaded & {"scipy.optimize", "scipy.sparse"}

    def test_oracle_run_loads_scipy_sparse_alone(self, tmp_path):
        # the oracle's propagator needs no scipy.sparse.linalg, which would
        # bring scipy.linalg with it
        loaded = loaded_after_run(tmp_path, "--scenario", "PsrSinglePhoton",
                                  "--lmax", "1", "--pmax", "0", "--oracle")
        assert loaded == {"scipy.sparse"}

    def test_oracle_names_resolve_on_first_access(self):
        from lgsqueeze import TruncatedFockSpace
        from lgsqueeze.fock_oracle import vacuum_statistics

        assert lgsqueeze.vacuum_statistics is vacuum_statistics
        assert TruncatedFockSpace(2, 1).dimension == 4

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            lgsqueeze.no_such_name


def test_a_run_that_never_splits_starts_no_thread(tmp_path):
    # a split starts its worker threads and imports their executor; this run makes none
    script = (
        "import sys, threading\n"
        "from lgsqueeze import cli\n"
        "assert cli.main(['--scenario', 'PsrSinglePhoton', '--out', 'out', '--quiet']) == 0\n"
        "print(threading.active_count(), 'concurrent.futures' in sys.modules)\n"
    )
    proc = run_python(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 False\n"


def test_module_entry_point_runs_a_scenario(tmp_path):
    proc = run_python(["-m", "lgsqueeze", "--scenario", "PsrSinglePhoton",
                       "--lmax", "0", "--pmax", "0", "--out", "out"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "report.json").is_file()


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(lgsqueeze.__path__):
        module = importlib.import_module(f"lgsqueeze.{info.name}")
        stale = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not stale, f"lgsqueeze.{info.name}.__all__ names missing {stale}"


# imports a function may make when it runs: the lazy Fock oracle of the
# package and of the command line's --oracle check (only it loads
# scipy.sparse); the command line's report_io, loaded on its first run to keep
# a large run's heap unpinned (see cli.main); and modules only a rare path needs
CALL_TIME_IMPORTS = {("__init__.py", ".fock_oracle"), ("cli.py", ".fock_oracle"),
                     ("cli.py", ".report_io"), ("*", "scipy.linalg"), ("*", "concurrent.futures"),
                     ("*", "decimal")}


def imported(node):
    """The modules an import statement names, a relative one with its dots."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    dots = "." * node.level
    if node.module is None:  # from . import name
        return [dots + alias.name for alias in node.names]
    return [dots + node.module]


def test_package_modules_import_at_module_top():
    late = set()  # a nested function's imports are walked twice
    for path in sorted(Path(lgsqueeze.__file__).parent.glob("*.py")):
        functions = [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in (node for func in functions for node in ast.walk(func)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                late |= {f"{path.name}:{node.lineno} {name}" for name in imported(node)
                         if not {(path.name, name), ("*", name)} & CALL_TIME_IMPORTS}
    assert not late, f"imports inside a function: {sorted(late)}"


# perfbench is not a package, so its tracer is loaded by path
_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_the_benchmark_tracer_sees_every_layer_of_a_run(tmp_path):
    # the tracer replaces module attributes, so a layer another module bound
    # by name at import would run unseen and read as zero calls
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.begin_pass()
        for run, argv in enumerate((["PsrSinglePhoton", "--lmax", "1", "--pmax", "0", "--oracle"],
                                    ["PdcBenchmark", "--lmax", "0", "--pmax", "1"])):
            assert cli.main(["--scenario", *argv, "--out", str(tmp_path / str(run)),
                             "--quiet"]) == 0
        figures = tracer.end_pass()
    finally:
        tracer.uninstall()
    layers = ("cli.main", "scenarios.run_scenario", "coupling.assemble_squeeze_matrix",
              "coupling.scale_to_mean_photons", "squeeze_core.polar_decompose",
              "squeeze_core.state_report", "squeeze_core.degenerate_statistics",
              "eigenmodes.decompose", "fock_oracle.vacuum_statistics", "report_io.emit_result")
    unseen = [layer for layer in layers if figures[f"{layer}.calls"] < 1]
    assert not unseen, unseen
