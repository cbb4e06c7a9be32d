"""Two-grid composite finite differences for interface and layer problems.

Fourth-order compact schemes on a coarse background lattice, second-order
fitted schemes on a locally refined tube around the interface, and exact
rational transition stencils gluing the two together.
"""
from .assembly import SparseSystem, assemble
from .errors import (BadParams, DegenerateDenominator, EmptyTube,
                     MissingNeighbor, MultipleCrossings, NoExactSolution,
                     NonConvergence, SignViolation, SingularMatrix,
                     TubeTooWide, TwoGridError, UnknownProblem)
from .geometry import InterfaceFrame, LevelSet, project_to_interface
from .grid import (Grid1D, Grid2DLine, Grid2DTube, GridParams, NodeTag,
                   build_line_two_grid_2d, build_tube_two_grid_2d,
                   build_two_grid_1d, dump_grid_json)
from .harness import (CaseReport, build_grid, convergence_study,
                      reference_errors, run_case, to_csv, to_json)
from .iim import (IrregularNodes, JumpData, iim_1d_irregular,
                  iim_discontinuous_stencil_2d, singular_source_stencil_2d)
from .linsolve import solve, verify_m_matrix
from .problems import (ProblemSpec, exact_error, make_problem,
                       problem_names, selfcheck)
from .stencils import (Stencil, border_coeffs_1d, border_coeffs_2d,
                       centered_nonuniform_1d, derive_hanging_coeffs,
                       hanging_coeffs, strip_mixed_order_2d)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
