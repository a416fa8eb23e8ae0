"""Exception taxonomy shared across the package.

Numerical failures are always raised as ChebddeError subclasses so the CLI can
map them to exit code 1 with a machine-readable payload; anything else escaping
a command is a genuine bug.
"""


class ChebddeError(Exception):
    """Base class for all diagnosable failures."""

    #: short machine-readable tag, overridden per subclass
    code = "error"

    def payload(self) -> dict:
        return {"error": self.code, "message": str(self)}


class ExprSyntaxError(ChebddeError):
    """Expression text failed to parse; carries the byte offset."""

    code = "syntax_error"

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset

    def payload(self) -> dict:
        d = super().payload()
        d["offset"] = self.offset
        return d


class UnknownSymbolError(ChebddeError):
    """A parameter or function name has no binding."""

    code = "unknown_symbol"


class EvalDomainError(ChebddeError):
    """Evaluation hit a non-differentiable point (log of nonpositive,
    division by zero); carries the offending subexpression text."""

    code = "domain_error"

    def __init__(self, message: str, subexpr: str):
        super().__init__(f"{message} in '{subexpr}'")
        self.subexpr = subexpr


class ConvergenceError(ChebddeError):
    """An iteration (Newton, continuation corrector) failed to converge."""

    code = "no_convergence"


class ConditioningError(ChebddeError):
    """A linear solve was refused because the matrix is numerically singular
    (e.g. lambda too close to a spurious eigenvalue of D)."""

    code = "ill_conditioned"


class SingularityError(ChebddeError):
    """A closed-form expression was evaluated at/near one of its poles."""

    code = "singular_point"


class NotARootError(ChebddeError, ValueError):
    """A given Hopf point does not solve the characteristic equation (a bad argument)."""

    code = "not_a_root"


class SimplicityError(ChebddeError):
    """The critical root is not numerically simple."""

    code = "not_simple"


class NormalizationError(ChebddeError):
    """The critical eigenvector has no first component to normalize the
    Lyapunov coefficient by; the root itself may be simple."""

    code = "unnormalizable"


class ResonanceError(ChebddeError):
    """A resonant denominator (Delta(0) or Delta(2i*omega)) is singular."""

    code = "resonance"


class ContinuationError(ChebddeError):
    """Curve tracing stalled: the corrector step underflowed near a singular
    point. Carries the last successfully corrected point."""

    code = "continuation_stalled"

    def __init__(self, message: str, last_point=None):
        super().__init__(message)
        self.last_point = last_point

    def payload(self) -> dict:
        d = super().payload()
        if self.last_point is not None:
            d["last_point"] = list(self.last_point)
        return d


class IntegrationError(ChebddeError):
    """Time integration aborted (step underflow or non-finite state).

    The partial trajectory up to the failure is attached when available.
    """

    code = "integration_failure"

    def __init__(self, message: str, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class PeriodEstimateError(ChebddeError):
    """Attractor period could not be measured (too few crossings)."""

    code = "not_oscillatory"


class NotPeriodicError(ChebddeError):
    """Crossing spacings spread too widely: quasiperiodic or chaotic signal."""

    code = "not_periodic"


class NoJumpError(ChebddeError):
    """Period-doubling bracket found no period jump in the given range."""

    code = "no_period_jump"
