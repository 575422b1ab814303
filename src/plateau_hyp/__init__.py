"""Constant-mean-curvature Killing graphs on the hyperbolic half-space slice.

Subpackages: ``geometry`` (half-space model, Killing structures, exact
solutions, ideal spheres), ``operator`` (graph mean-curvature residual,
orientation fixing, grid discretization), ``barriers`` (stacked lower
barriers, equidistant supersolutions, upper caps), ``solver`` (masked Dirichlet solver),
``perron`` (monotone lift iteration for the asymptotic problem), and ``cli``
(batch scenarios with file artifacts).
"""

from . import barriers, cli, geometry, operator, perron, solver
from .geometry import ChartPoint, IdealSphere, between_spheres_check, killing_structure
from .operator import (GridFunction, OrientationConvention, ScalarPatch, exact_patch,
                       make_grid, numerical_mean_curvature, orientation,
                       qh_pointwise, qh_residual_grid, sample_on_grid)
from .barriers import (BarrierStack, SupersolutionPlane, UpperCap, build_stack,
                       make_supersolution, select_alpha, upper_cap_barrier)
from .solver import (DirichletProblem, SolveReport, SolverConfig, SolverDivergence,
                     gradient_diagnostic, residual_norm, solve_dirichlet)
from .perron import (BoundaryDatum, PerronConfig, PerronStall,
                     boundary_attainment_report, comparison_check,
                     perron_sweep, run_asymptotic_solve)

__version__ = "0.1.0"
