"""Exception types shared across the library."""


class ValcutsError(Exception):
    """Base class for all library errors."""


class StructuralError(ValcutsError):
    """Mismatched descriptors or coordinates outside a component's allowed set."""


class DegenerateInputError(ValcutsError):
    """Input that the operation rejects by convention (zero element, empty cut)."""


class NotImmediateError(ValcutsError):
    """Approximation values do not increase strictly, so the element is not immediate."""


class WrongCaseError(ValcutsError):
    """Datum belongs to a different analysis case than the one requested."""


class InconsistentDatumError(ValcutsError):
    """Extension datum whose declared values contradict each other."""


class InvalidSelectionError(ValcutsError):
    """Selected level is not a subprincipal convex subgroup of the built group."""


class ParseError(ValcutsError):
    """Formula syntax error with input position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ConfigError(ValcutsError):
    """Scenario configuration rejected by schema validation."""

    def __init__(self, message, fields=()):
        super().__init__(message)
        self.fields = tuple(fields)


class EvaluationUnsupported(ValcutsError):
    """Term cannot be evaluated on this model; surfaces as UNKNOWN in bounded mode."""
