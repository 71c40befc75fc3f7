"""Command-line entry point: run a scenario and emit its report files; under
``--oracle``, ``fock_oracle.check_run`` judges the run and the CLI prints its verdict."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

from . import scenarios
from .modes import FieldError


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
        help="cross-check against the truncated-Fock oracle (a few-mode basis only)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress the summary")
    return parser


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
        if args.oracle:
            from . import fock_oracle  # loads scipy.sparse, which no other run needs

            limit, size = fock_oracle.CHECK_MAX_MODES, cfg.coupling.basis.size
            if size > limit:
                raise ValueError(f"--oracle: the cross-check needs a basis of <= {limit} modes, "
                                 f"got {size}")

        out_dir = args.out or os.environ.get("OUT_DIR") or "out"
        start = time.perf_counter()
        result = scenarios.run_scenario(cfg)
        wall = time.perf_counter() - start
        failure = None
        if args.oracle:
            # a non-finite report is refused before the oracle
            report_io.report_to_dict(result.report)
            result.oracle_agreement, failure = fock_oracle.check_run(
                result.squeeze, result.report,
                "n_target" if cfg.seed_gain is None else seed_knob)
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
