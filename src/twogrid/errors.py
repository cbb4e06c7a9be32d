"""Exception types shared across the solver modules."""


class TwoGridError(Exception):
    """Base class for all errors raised by this package."""


class NonConvergence(TwoGridError):
    """An iteration failed to converge: the interface projection, or the
    linear solve's refinement short of its residual tolerance."""


class EmptyTube(TwoGridError):
    """No coarse node fell inside the refinement tube, or one side of the
    interface holds none of its regular fine nodes."""


class TubeTooWide(TwoGridError):
    """The refinement tube reaches too close to the domain boundary."""


class SignViolation(TwoGridError):
    """A stencil could not be given the sign pattern needed for monotonicity."""


class DegenerateDenominator(TwoGridError):
    """An interface-fitted stencil denominator vanished (to working tolerance)."""


class MultipleCrossings(TwoGridError):
    """A single stencil arm crosses the interface more than once."""


class MissingNeighbor(TwoGridError):
    """A stencil needs a node that the composite grid does not have."""


class SingularMatrix(TwoGridError):
    """The assembled linear system is singular."""


class UnknownProblem(TwoGridError):
    """No registered benchmark problem under that name."""


class BadParams(TwoGridError):
    """Problem or grid parameters are malformed or out of range."""


class NoExactSolution(TwoGridError):
    """Error measurement was requested for a problem without an exact solution."""
