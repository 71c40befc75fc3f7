"""The benchmark's workloads: the operations of one pass, built from a seed.

Every workload is a closed loop with one caller: a pass runs its operations
one after another through the package's public entry points, and the next
pass starts only when the previous one (and its gate check) is done.

* ``paper-suite``: the seven named scenarios at the stock basis, each via
  ``lgsqueeze.cli.main`` into a fresh directory.  Many small quadrature
  assemblies (WaistScan alone makes 65); the seed only orders the
  scenarios within each pass.
* ``large-basis``: ``PdcBenchmark`` at ell_max=10, p_max=20 (441 modes)
  through the same CLI path.  One huge assembly, dense analysis and
  138 MB of report files per pass; the seed does not change the input.
* ``oracle-verify``: seeded random symmetric two-beam matrices compared
  between ``state_report`` and the truncated-Fock ``vacuum_statistics``,
  plus the CLI ``--oracle`` check of the 3-mode degenerate PsrSinglePhoton.
  The mix of mode counts and spectral norms is fixed, so the seed changes
  which matrices are drawn but not how much work a pass is.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from lgsqueeze import cli, fock_oracle, squeeze_core
from lgsqueeze.coupling import InteractionType

from gate import Tally
from tracing import SCENARIOS

WORKLOADS = ("paper-suite", "large-basis", "oracle-verify")

# Acceptance criterion 1 draws spectral norms from [0.1, 0.7].  One- and
# two-mode draws are cheap and cover the range; the 3-mode draw dominates the
# pass and its expm_multiply cost grows with the norm, so it sits at a fixed
# mid-range norm to keep pass time independent of the seed.
DRAW_NORMS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
THREE_MODE_NORM = 0.4
# At n_cut = 8 the oracle's own truncation estimate reaches 0.02 at norm 0.7,
# twenty times criterion 1's 1e-3 cap, so whether a draw there passes depends
# on its direction, not on the closed form.  At n_cut = 14 the estimate stays
# below the cap up to norm 0.7 (about 9e-4 at most), so every one- and
# two-mode comparison is decided by the oracle's own bound; the 3-mode draw
# at norm 0.4 already is at n_cut = 8 (estimate about 2e-4).
DRAW_N_CUT = 14
THREE_MODE_N_CUT = 8


class CliRun:
    """One ``lgsqueeze.cli.main`` run into its own output directory."""

    def __init__(self, scenario: str, lmax=None, pmax=None, oracle: bool = False):
        self.argv = ["--scenario", scenario, "--quiet"]
        basis = "stock"
        if lmax is not None:
            self.argv += ["--lmax", str(lmax), "--pmax", str(pmax)]
            basis = f"l{lmax}p{pmax}"
        if oracle:
            self.argv.append("--oracle")
        self.label = f"{scenario}/{basis}" + ("/oracle" if oracle else "")

    def execute(self, work_dir: Path):
        out = work_dir / self.label.replace("/", "-")
        # looked up at call time, so a traced pass goes through the wrapper
        return cli.main(self.argv + ["--out", str(out)]), out

    def check(self, outcome, tally: Tally, reference: dict) -> None:
        exit_code, out = outcome if outcome is not None else (None, None)
        tally.check_cli(self.label, reference[self.label], exit_code, out)


def random_symmetric(rng, n: int, norm: float) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    xi = 0.5 * (a + a.T)
    return norm * xi / np.linalg.norm(xi, 2)


class OracleDraw:
    """Closed-form statistics of one matrix against the truncated-Fock oracle."""

    def __init__(self, xi: np.ndarray, norm: float, n_cut: int):
        self.xi = xi
        self.n_cut = n_cut
        self.label = f"oracle draw, {xi.shape[0]} modes, norm {norm}"

    def execute(self, work_dir: Path):
        n = self.xi.shape[0]
        sq = squeeze_core.SqueezeMatrix(
            xi=self.xi, basis=None, interaction=InteractionType.FULL_CROSSTALK
        )
        report = squeeze_core.state_report(sq)
        space = fock_oracle.TruncatedFockSpace(2 * n, self.n_cut)
        return report, fock_oracle.vacuum_statistics(self.xi, space)

    def check(self, outcome, tally: Tally, reference: dict) -> None:
        if outcome is None:
            tally.record(f"{self.label}: raised", 1, 1)
            return
        rep, oracle = outcome
        # the same statistics and conventions as acceptance criterion 1
        deviations = [
            abs(oracle.scalar_var[0] - rep.scalar_var[0]),
            abs(oracle.scalar_var[1] - rep.scalar_var[1]),
            np.abs(oracle.var_X1 - rep.var_X1).max(),
            np.abs(oracle.var_X2 - rep.var_X2).max(),
            np.abs(2.0 * oracle.cross_cov - rep.cross_cov).max(),
            np.abs(oracle.nbar_matrix - rep.nbar_matrix).max(),
            abs(oracle.number_variance - rep.number_variance),
            abs(oracle.number_covariance - rep.number_covariance),
            np.abs(oracle.pair_matrix + rep.pair_matrix).max(),
        ]
        tally.check_draw(self.label, deviations, oracle.truncation_bound)


class Workload:
    """A workload's fixed operations; ``tiny`` shrinks every size for the smoke test."""

    def __init__(self, name: str, seed: int, tiny: bool = False):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.rng = np.random.default_rng(seed)
        if name == "paper-suite":
            basis = (0, 0) if tiny else (None, None)
            self.ops = [CliRun(scenario, *basis) for scenario in SCENARIOS]
            self.warmup = CliRun("PsrSinglePhoton", 0, 0)
        elif name == "large-basis":
            self.ops = [CliRun("PdcBenchmark", *((0, 0) if tiny else (10, 20)))]
            self.warmup = CliRun("PdcBenchmark", 0, 0)
        else:
            mix = [(1, 0.4), (2, 0.4)] if tiny else [
                (n, norm) for n in (1, 2) for norm in DRAW_NORMS
            ]
            self.ops = [OracleDraw(random_symmetric(self.rng, n, norm), norm,
                                   n_cut=8 if tiny else DRAW_N_CUT)
                        for n, norm in mix]
            # a tiny run still takes the 3-mode path, in a smaller space
            self.ops.append(OracleDraw(
                random_symmetric(self.rng, 3, 0.1 if tiny else THREE_MODE_NORM),
                0.1 if tiny else THREE_MODE_NORM, n_cut=4 if tiny else THREE_MODE_N_CUT,
            ))
            self.ops.append(CliRun("PsrSinglePhoton", 0 if tiny else 1, 0, oracle=True))
            self.warmup = CliRun("PsrSinglePhoton", 0, 0, oracle=True)

    def pass_ops(self) -> list:
        """Operations of the next pass, in the order they run."""
        if self.name == "paper-suite":
            return [self.ops[i] for i in self.rng.permutation(len(self.ops))]
        return self.ops

    def cli_runs(self) -> list:
        return [op for op in self.ops + [self.warmup] if isinstance(op, CliRun)]
