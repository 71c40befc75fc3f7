"""In-memory spans around the public functions of each lgsqueeze layer.

A traced pass replaces each function at the name its caller looks it up
(for example ``scenarios.assemble_squeeze_matrix``, which ``scenarios``
imports by name, and ``squeeze_core.polar_decompose``, which
``SqueezeMatrix`` calls as a module global).  Every call records a span
``[name, tag, start, end, parent]``; a span's self time is its duration
minus the durations of its direct children.  Untraced passes never install
the wrappers.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import importlib
import os
import statistics
import time

import numpy as np

# Listed here rather than read from the package, so that the per-layer
# metric names stay the same whatever the program under test defines.
SCENARIOS = (
    "PsrSinglePhoton",
    "PsrPCrosstalk",
    "FwmTwoPhoton",
    "PdcBenchmark",
    "PdcEigenPump",
    "PdcHeralding",
    "WaistScan",
)


def _config_key(obj):
    """Hashable value of a (nested) frozen config, comparing arrays by content."""
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            _config_key(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        )
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (tuple, list)):
        return tuple(_config_key(v) for v in obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    return obj


def _on_assemble(tracer, record, args, kwargs, result):
    # distinct within each scenario run: the duplicates one run could reuse
    scenario = record[4]
    while scenario >= 0 and tracer.spans[scenario][0] != "scenarios.run_scenario":
        scenario = tracer.spans[scenario][4]
    tracer.configs.add((scenario, _config_key((args, sorted(kwargs.items())))))


def _on_run_scenario(tracer, record, args, kwargs, result):
    record[1] = args[0].name


def _on_emit(tracer, record, args, kwargs, result):
    out_dir = args[2] if len(args) > 2 else kwargs["out_dir"]
    tracer.bytes_written += sum(
        os.path.getsize(os.path.join(out_dir, name)) for name in result
    )


def _on_vacuum_statistics(tracer, record, args, kwargs, result):
    space = args[1] if len(args) > 1 else kwargs["space"]
    tracer.states += space.dimension
    tracer.truncation_max = max(tracer.truncation_max, result.truncation_bound)


# (span name, bindings patched, hook run after each call, count only inside
# a program span).  Bindings list every name a caller looks the function up by.
LAYERS = (
    ("cli.main", (("lgsqueeze.cli", "main"),), None, False),
    ("scenarios.run_scenario", (("lgsqueeze.scenarios", "run_scenario"),),
     _on_run_scenario, False),
    ("coupling.assemble_squeeze_matrix",
     (("lgsqueeze.coupling", "assemble_squeeze_matrix"),
      ("lgsqueeze.scenarios", "assemble_squeeze_matrix")), _on_assemble, False),
    ("modes.laguerre_ladder",
     (("lgsqueeze.modes", "laguerre_ladder"),
      ("lgsqueeze.coupling", "laguerre_ladder")), None, False),
    ("coupling.scale_to_mean_photons",
     (("lgsqueeze.coupling", "scale_to_mean_photons"),
      ("lgsqueeze.scenarios", "scale_to_mean_photons")), None, False),
    ("squeeze_core.polar_decompose",
     (("lgsqueeze.squeeze_core", "polar_decompose"),), None, False),
    ("squeeze_core.state_report",
     (("lgsqueeze.squeeze_core", "state_report"),
      ("lgsqueeze.scenarios", "state_report")), None, False),
    ("squeeze_core.degenerate_statistics",
     (("lgsqueeze.squeeze_core", "degenerate_statistics"),), None, False),
    ("eigenmodes.decompose",
     (("lgsqueeze.eigenmodes", "decompose"),
      ("lgsqueeze.scenarios", "decompose")), None, False),
    ("fock_oracle.vacuum_statistics",
     (("lgsqueeze.fock_oracle", "vacuum_statistics"),), _on_vacuum_statistics, False),
    ("fock_oracle.build_hamiltonian_exponent",
     (("lgsqueeze.fock_oracle", "build_hamiltonian_exponent"),), None, False),
    ("report_io.emit_result", (("lgsqueeze.report_io", "emit_result"),), _on_emit, False),
    ("linalg.svd", (("numpy.linalg", "svd"),), None, True),
    ("linalg.eigh", (("numpy.linalg", "eigh"),), None, True),
    ("linalg.schur", (("scipy.linalg", "schur"),), None, True),
)

ROOT = "bench.pass"
SPAN_NAMES = tuple(name for name, *_ in LAYERS)


class Tracer:
    """Records spans while installed; aggregates them per benchmark pass."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self._reset_counters()

    def _reset_counters(self):
        self.configs = set()
        self.bytes_written = 0
        self.states = 0
        self.truncation_max = 0.0

    def _wrap(self, name, fn, hook, nested_only):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if nested_only and len(stack) < 2:  # only the pass span is open
                return fn(*args, **kwargs)
            record = [name, None, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if hook is not None:
                hook(self, record, args, kwargs, result)
            return result

        return traced

    def install(self):
        wrapped = {}
        for name, bindings, hook, nested_only in LAYERS:
            for module_name, attr in bindings:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                # one wrapper per original function, shared by its bindings
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(name, original, hook, nested_only)
                setattr(module, attr, wrapped[id(original)])

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def begin_pass(self):
        self._reset_counters()
        self._stack.clear()
        self._stack.append(len(self.spans))
        self.spans.append([ROOT, None, time.perf_counter(), 0.0, -1])

    def end_pass(self) -> dict:
        """Close the pass span and return this pass's per-layer figures."""
        root = self._stack.pop()
        self.spans[root][3] = time.perf_counter()
        spans = self.spans[root:]
        child_time = [0.0] * len(spans)
        for rec in spans[1:]:
            child_time[rec[4] - root] += rec[3] - rec[2]
        out = {f"{name}.{kind}": 0.0 for name in SPAN_NAMES for kind in ("calls", "self_s")}
        out.update({f"scenarios.{name}.wall_s": 0.0 for name in SCENARIOS})
        for offset, rec in enumerate(spans[1:], start=1):
            name, tag, start, end = rec[:4]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[offset]
            if tag is not None:
                out[f"scenarios.{tag}.wall_s"] += end - start
        calls = out["coupling.assemble_squeeze_matrix.calls"]
        out["coupling.assemble_squeeze_matrix.distinct_ratio"] = (
            len(self.configs) / calls if calls else 0.0
        )
        out["report_io.emit_result.bytes_written"] = float(self.bytes_written)
        out["fock_oracle.states"] = float(self.states)
        out["fock_oracle.truncation_bound.max"] = self.truncation_max
        out["bench.unattributed_s"] = (spans[0][3] - spans[0][2]) - child_time[0]
        out["trace.traced_wall_s"] = spans[0][3] - spans[0][2]
        return out


def median_figures(passes: list) -> dict:
    """Median over passes of every per-pass figure."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
