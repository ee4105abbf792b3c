"""Exception taxonomy shared by all solver modules."""


class DryoutError(Exception):
    """Base class for every error raised by this package."""


class DomainError(DryoutError):
    """State lies outside the validity region of the energy model."""


class NoCriticalPoint(DryoutError):
    """The model's pressure is monotone in volume; no critical point."""


class NoBracket(DryoutError):
    """Root bracketing failed: both endpoints have the same sign."""


class NoConvergence(DryoutError):
    """An iterative solver exhausted its budget or missed its tolerance."""


class SingularJacobian(DryoutError):
    """Newton step impossible: Jacobian determinant below scale."""


class TooFewPoints(DryoutError):
    """Envelope construction needs at least three sample points."""


class AboveCritical(DryoutError):
    """Requested temperature at or above the supported critical range."""


class NoPhaseTransition(DryoutError):
    """Convex Helmholtz energy (ideal gas): no two-phase coexistence."""


class OutOfRange(DryoutError):
    """Input value outside the admissible interval."""


class DegenerateGap(DryoutError):
    """Gas and liquid volumes coincide; the interface system is singular."""


class ContinuationFailed(DryoutError):
    """Flux continuation did not reach the target kinetic parameter.

    When ``j_fold`` is set the verdict is "j exceeds the located fold
    j_f": the branch continued from zero flux turns back at j_f = j_fold,
    so it holds no stationary phase transition at this flux.  When the
    fold could not be bracketed ``j_fold`` is None and the verdict is only
    "continuation stalled": a numerical verdict, not a proof of
    nonexistence.  ``z_reached`` is the last certified Z and ``theta``,
    ``v`` the state there.
    """

    def __init__(self, message, z_reached=0.0, theta=None, v=None, sign_changes=None,
                 j_fold=None):
        super().__init__(message)
        self.z_reached = z_reached
        self.theta = theta
        self.v = v
        self.sign_changes = sign_changes
        self.j_fold = j_fold


class AllFailed(DryoutError):
    """Every probe in a scan failed, including the lowest flux."""


class NoDryout(DryoutError):
    """Dryout condition violated; no stationary free boundary exists."""


class InvalidInput(DryoutError):
    """Arguments violate a documented precondition."""


class NegativePosition(DryoutError):
    """Temperature profiles are defined for x >= 0 only."""


class ParseError(DryoutError):
    """Config text is malformed."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(DryoutError):
    """Config parsed but violates an invariant."""
