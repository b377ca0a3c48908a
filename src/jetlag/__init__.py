"""Jet-Lagrange geometry and resonant dynamics of the 2D-monolayer Lagrangian.

The package has four layers:

* :mod:`jetlag.geometry` -- a generic pipeline deriving metric, semispray,
  nonlinear/Cartan connections, torsions and the electromagnetic d-form
  from any Lagrangian by finite differences (the independent oracle);
* :mod:`jetlag.monolayer` -- closed forms for the monolayer Lagrangian,
  both exact and as printed (leading-order) displays;
* :mod:`jetlag.dynamics` -- geodesic integration with the per-sample
  energies of one pass (``hamiltonian_split``), resonant trajectories and
  Jacobi deviations;
* :mod:`jetlag.cli` -- the ``jetlag`` command-line front end.
"""

from .dynamics import (
    DeviationState,
    SimConfig,
    TrajectorySeries,
    TrajectoryState,
    compose_perturbed,
    deviation_integrate,
    hamiltonian_split,
    integrate_geodesic,
    resonant_trajectory,
)
from .errors import ConfigError, DomainError, JetLagError, SingularMetricError, StencilDomainError
from .expint import exp_integral_f
from .geometry import (
    CartanConnection,
    EMForm,
    GeometryBundle,
    GeometryEvaluator,
    Metric,
    NonlinearConnection,
    Semispray,
    TorsionSet,
    numeric_partials,
    ym_energy,
)
from .models import LagrangianModel
from .monolayer import (
    MonolayerModel,
    MonolayerParams,
    closed_cartan,
    closed_em_and_ym,
    closed_metric,
    closed_nonlinear_connection,
    closed_semispray,
    closed_torsions,
    potential_U,
)
from .points import JetPoint, jet_point
from .validate import DiscrepancyReport, run_validation

__version__ = "0.1.0"
