"""Stabilizer-free conforming DG discretization of Brinkman flow on
polytopal meshes, with a convergence-study harness and field export."""

__version__ = "0.1.0"

from .analysis import (ConvergenceReport, ErrorReport, error_equation_residual,
                       norm_l2_pressure, norm_l2_velocity, norm_pressure_jump,
                       norm_triple_bar, norm_triple_bar_1, project_pressure,
                       project_tensor, project_velocity, run_convergence)
from .assembly import (BrinkmanProblem, SaddleSystem, assemble_a, assemble_b,
                       assemble_mean_constraint, assemble_rhs, assemble_s,
                       assemble_system)
from .mesh import (Mesh, MeshFormatError, MeshValidationError,
                   generate_polygonal, generate_uniform_rectangular,
                   generate_uniform_triangular, load_mesh, save_mesh)
from .polyspace import ConditioningError, dim_poly
from .problems import (ManufacturedProblem, RasterKappa, cavity_problem,
                       constant_flow_problem, example1, load_kappa_raster,
                       polynomial_patch, sample_raster_path)
from .solver import SingularSystemError, Solution, SolverError, solve
from .weakgrad import (Discretization, edge_average, normal_jump, scalar_jump,
                       target_degree)
