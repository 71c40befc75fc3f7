"""Multimode squeezed-light analysis for Laguerre-Gauss beams.

Builds the multimode squeezing matrix of a pumped nonlinear medium from
Laguerre-Gauss overlap integrals, analyzes the resulting squeezed state
(quadrature variances and covariances, photon statistics, pair-creation
coupling, eigenmodes of squeezing), and runs desk-scale simulation and
optimization scenarios with reproducible CSV/JSON reports.
"""

from .modes import (
    BeamGeometry,
    ModeBasis,
    ModeIndex,
    QuadratureError,
    build_basis,
    lg_amplitude,
    lg_radial_profile,
    transverse_inner_product,
)
from .coupling import (
    CouplingConfig,
    InteractionType,
    PumpSpec,
    assemble_squeeze_matrix,
    coupling_element,
    scale_to_mean_photons,
)
from .squeeze_core import (
    SqueezeMatrix,
    StateReport,
    bogoliubov_matrix,
    bogoliubov_metric,
    degenerate_statistics,
    polar_decompose,
    state_report,
)
from .eigenmodes import (
    EigenDecomposition,
    decompose,
    eigenmode_pump,
    eigenmode_report,
    is_normal,
    state_coefficients,
)
from .scenarios import SCENARIO_NAMES, ScenarioConfig, default_config, run_scenario

__version__ = "0.1.0"

# The Fock oracle needs scipy.sparse, so it is imported on first access only.
_ORACLE_NAMES = ("TruncatedFockSpace", "build_hamiltonian_exponent", "vacuum_statistics")


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import fock_oracle

        return getattr(fock_oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
