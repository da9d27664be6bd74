"""Exception taxonomy.

Two families, matching the CLI exit-code contract:

* DomainError (exit code 2): the request is outside the mathematical domain,
  the parameters are mutually inconsistent, or no solution of the requested
  kind exists.
* NumericalError (exit code 3): the request is admissible but a numerical
  procedure failed to meet its target (quadrature refinement, step-size
  control, root bracketing of a quantity that should be monotone).
"""


class DomainError(ValueError):
    """Parameters outside the admissible domain."""


class InconsistentParams(DomainError):
    """(lambda, P, B) violate a sign rule, e.g. B < 0 requires P < 0."""


class NoSolution(DomainError):
    """No solution of the requested kind exists for these parameters."""


class OutOfRange(DomainError):
    """Requested target value lies outside the admissible interval."""


class SpanMismatch(DomainError):
    """Arc life-spans do not tile [0, 2pi) within tolerance."""

    def __init__(self, message: str, gap: float = float("nan")):
        super().__init__(message)
        self.gap = gap


class InadmissibleArc(DomainError):
    """A requested (lambda, P, B) admits no hyperbolic arc."""


class InsufficientSamples(DomainError):
    """Profile too sparse for finite-difference residual checks."""


class OnSingularRay(DomainError):
    """Field evaluation requested on a ray where slopes are infinite."""


class SteadyStateError(DomainError):
    """(P, B) sit at the center; the orbit is a point, no span is defined."""


class NoBracket(DomainError):
    """Root scan failed to bracket an intercept; parameters are inconsistent."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to reach its stated target."""


class QuadratureFailure(NumericalError):
    """Adaptive quadrature missed the error target after max refinement."""


class StepFailure(NumericalError):
    """ODE step-size controller underflowed the minimum step."""


class SingularEndpoint(NumericalError):
    """Trajectory entered x < X_MIN with lambda < 2 and B != 0.

    The power term of the phase system is singular at the axis there; the
    caller must use the quadrature path instead of the ODE integrator.
    """


class EventNotFound(NumericalError):
    """Stop condition was not met within the integration time cap."""


class NonMonotoneDetected(NumericalError):
    """A bracketed root solve misbehaved where monotonicity was expected.

    Raised when a bracket carries no sign change, when it cannot be formed
    (P_max underflows), or when the elliptic root solve (Brent in ln P)
    ends outside its tolerance on |T - 2 pi/n|.
    """
