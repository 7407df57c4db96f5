"""Exception types shared across the package."""


class LiftctlError(Exception):
    """Base class for all package-specific errors."""


class OffManifoldError(LiftctlError):
    """A point failed the manifold membership check."""


class DegenerateStepError(LiftctlError):
    """A retraction step collapsed to (numerically) the origin."""


class AntipodalPointsError(LiftctlError):
    """Two sphere points are antipodal; the minimizing geodesic is not unique."""


class IntegrationError(LiftctlError):
    """Numerical integration left the manifold or a field evaluation failed."""


class UncontrollablePairError(LiftctlError):
    """The controllability Gramian is numerically singular."""


class SteeringFailure(LiftctlError):
    """A steering oracle could not produce a plan within its budget."""


class PlanningBudgetError(LiftctlError):
    """Chain planning exceeded its leg budget. Carries the best partial chain."""

    def __init__(self, message, best_chain=None):
        super().__init__(message)
        self.best_chain = best_chain


class DefinitionError(LiftctlError):
    """A system definition file, flag or step is malformed. Names the offending field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field, self.reason = field, message
