"""Exception types shared across the package."""


class DbmcError(Exception):
    """Base class for every error raised by this package."""


class ParseError(DbmcError):
    """Malformed edge-list or scenario text; the message carries the line or key."""


class ValidationError(DbmcError):
    """A structural invariant of a graph, model, or parameter set is violated."""


class UnreachableError(DbmcError):
    """Some node has no directed path to a source."""


class SpecError(DbmcError):
    """Invalid disturbance, generator, or scenario specification."""


class DomainError(DbmcError):
    """Argument outside the mathematical domain of a formula."""


class PreconditionError(DbmcError):
    """Simulation input violates a required precondition."""


class IntegrationError(DbmcError):
    """The integrator cannot continue (step size underflow)."""


class InfeasibleError(DbmcError):
    """Disturbance margins are too large for a guaranteed termination time."""


class CycleError(DbmcError):
    """Parent tracing revisited a node."""


class MissingParentError(DbmcError):
    """A non-source node has an empty parent set during tracing."""
