"""Command-line entry point: run a scenario and emit its report files."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import scenarios, squeeze_core
from .coupling import InteractionType
from .modes import FieldError
from .squeeze_core import VACUUM_VARIANCE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgsqueeze",
        description=(
            "Simulate multimode squeezed-light generation in Laguerre-Gauss "
            "bases and emit CSV/JSON reports."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", help="named scenario to run")
    source.add_argument("--config", help="path to a JSON scenario configuration")
    parser.add_argument("--out", help="output directory (default $OUT_DIR or ./out)")
    parser.add_argument("--lmax", type=int, default=None, help="azimuthal basis bound")
    parser.add_argument("--pmax", type=int, default=None, help="radial basis bound")
    parser.add_argument(
        "--seed-gain",
        type=float,
        default=None,
        help="apply this gain factor instead of calibrating the photon number",
    )
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the truncated-Fock oracle (basis size <= 3)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress the summary")
    return parser


def _oracle_check(result, knob: str):
    """The ``oracle_agreement`` summary of a run, and why it fails (None if it
    passes); ``knob`` names what set the run's gain."""
    from .fock_oracle import (COMPARED_FIELDS, DIMENSION_GUARD, ORACLE_CAP, TruncatedFockSpace,
                              deviations, vacuum_statistics)

    sq = result.squeeze
    n = sq.size
    single_beam = sq.interaction is InteractionType.DEGENERATE_SINGLE_BEAM
    # modes xi leaves out stay in vacuum and factor off the state exactly, so
    # the oracle runs on the coupled ones, at the deepest cut the state-vector
    # guard allows for their count; a zero xi keeps every mode
    coupled = np.flatnonzero(np.any(sq.xi != 0, axis=0) | np.any(sq.xi != 0, axis=1))
    if not coupled.size:
        coupled = np.arange(n)
    block = np.ix_(coupled, coupled)
    n_modes = len(coupled) * (1 if single_beam else 2)
    n_cut = min(300, int(DIMENSION_GUARD ** (1.0 / n_modes)) - 1)
    oracle = vacuum_statistics(sq.xi[block], TruncatedFockSpace(n_modes, n_cut))

    # the idle modes' exact values: vacuum quadrature variance, no photons, no pairs
    idle = VACUUM_VARIANCE * (n - len(coupled))
    full = {"scalar_var": tuple(total + idle for total in oracle.scalar_var)}
    for name in COMPARED_FIELDS:
        if np.ndim(getattr(oracle, name)) == 2:  # a matrix over the modes
            full[name] = np.eye(n, dtype=complex) * (VACUUM_VARIANCE if name[:3] == "var" else 0.0)
            full[name][block] = getattr(oracle, name)
    rep = squeeze_core.degenerate_statistics(sq) if single_beam else result.report
    # each deviation is scaled by the closed-form value where that exceeds 1
    scaled = {name: deviation / max(1.0, float(np.abs(getattr(rep, name)).max()))
              for name, deviation in deviations(replace(oracle, **full), rep, single_beam).items()}
    worst = max(scaled, key=scaled.get)
    bound = oracle.truncation_bound
    agreement = {
        "truncation_bound": bound,
        "max_deviation": scaled[worst],
        "deviations": scaled,
        "within_bound": bound <= ORACLE_CAP and scaled[worst] <= max(bound, 1e-9),
    }
    failure = None if agreement["within_bound"] else (
        f"--oracle: {worst} deviates from the truncated-Fock oracle by {scaled[worst]:.3g}, "
        f"against its truncation bound {bound:.3g} (accepted up to {ORACLE_CAP:g}); a lower "
        f"{knob} or a smaller basis brings the state within the oracle's cut")
    return agreement, failure


def _json_int(text: str):
    """A JSON integer; one too long for ``int`` reads as a float, +-inf, which
    the object that holds the key then refuses by name."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    seed_knob = "seed_gain" if args.seed_gain is None else "--seed-gain"  # sets a seed gain
    # not at module top: loaded ahead of scipy.sparse, report_io leaves a large
    # run's heap pinned (see fock_oracle's scipy.sparse import)
    from . import report_io

    try:
        if args.config:
            with open(args.config, encoding="utf-8") as handle:
                data = json.load(handle, parse_int=_json_int)
            cfg = report_io.scenario_config_from_dict(data)
        else:
            cfg = scenarios.default_config(args.scenario)
        changes = {}
        if args.lmax is not None or args.pmax is not None:
            old = cfg.coupling.basis
            basis = scenarios.scenario_basis(
                cfg.name, old.ell_max if args.lmax is None else args.lmax,
                old.p_max if args.pmax is None else args.pmax)
            changes["coupling"] = scenarios.coupling_on_basis(cfg.coupling, basis)
        if args.seed_gain is not None:
            changes["seed_gain"] = args.seed_gain
        cfg = replace(cfg, **changes)
        if args.oracle and cfg.coupling.basis.size > 3:
            raise ValueError("--oracle: the cross-check needs a basis of <= 3 modes, "
                             f"got {cfg.coupling.basis.size}")

        out_dir = args.out or os.environ.get("OUT_DIR") or "out"
        start = time.perf_counter()
        result = scenarios.run_scenario(cfg)
        wall = time.perf_counter() - start
        failure = None
        if args.oracle:
            # a non-finite report is refused before the oracle
            report_io.report_to_dict(result.report)
            result.oracle_agreement, failure = _oracle_check(
                result, "n_target" if cfg.seed_gain is None else seed_knob)
        files = report_io.emit_result(result, cfg, out_dir, wall_time_s=wall)
        if failure:  # the files are written for a look at the deviations
            raise ValueError(failure)
    except FieldError as exc:  # set by a flag, or a seed gain the run refused
        flags = {"name": "--scenario", "basis.ell_max": "--lmax", "basis.p_max": "--pmax",
                 "seed_gain": seed_knob}
        flag = flags.get(exc.field, exc.field)
        print(f"error: {flag}: {exc.reason}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # ConfigError, JSONDecodeError too
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if not args.quiet:
        print(f"{result.name}: nbar = {result.report.nbar_total:.6f}, "
              f"gain = {result.gain:.6g}")
        for key in sorted(result.metrics):
            print(f"  {key} = {result.metrics[key]:.6g}")
        oracle_summary = result.oracle_agreement
        if oracle_summary is not None:
            print(
                "  oracle max deviation = %.3e (bound %.3e)"
                % (oracle_summary["max_deviation"], oracle_summary["truncation_bound"])
            )
        print(f"wrote {len(files)} files to {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
