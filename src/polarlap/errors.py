"""Exception types shared across the package."""


class PolarlapError(Exception):
    """Base class for all package-specific errors."""


class IncompatiblePolarizer(PolarlapError):
    """The reflection does not map grid nodes/cell centers onto themselves."""


class DegeneratePolarizer(PolarlapError):
    """A polarizer construction produced a zero normal."""


class OutOfBounds(PolarlapError):
    """A geometric result is not representable inside the grid window."""


class NotAdmissible(PolarlapError):
    """The reflected obstacle leaves the outer set."""


class PoolViolation(PolarlapError):
    """A polarizer fails the anchored-ray pool membership conditions."""


class MalformedDomain(PolarlapError):
    """A punctured-domain invariant is violated."""


class SignedInput(PolarlapError):
    """A signed function was passed where a nonnegative one is required."""


class SupportMismatch(PolarlapError):
    """A polarized function is positive off its polarized support."""


class DirichletViolation(PolarlapError):
    """A function is nonzero on a pinned boundary node."""


class ZeroFunction(PolarlapError):
    """An operation received a function that vanishes on all free nodes."""


class NoFreeNodes(PolarlapError):
    """The mesh has no unknowns left after boundary pinning."""


class AssumptionViolated(PolarlapError):
    """A scenario precondition (symmetry/geometry assumption) fails."""


class SymmetryHypothesisViolated(PolarlapError):
    """A Neumann boundary family is not invariant under the reflection."""


class EmptyAdmissibleSet(PolarlapError):
    """No admissible parameter values remain for a study."""


class ParseError(PolarlapError):
    """Configuration text is not syntactically valid."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class ValidationError(PolarlapError):
    """Configuration is syntactically valid but violates an invariant."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class SpecError(ValueError):
    """A scenario spec value breaks one of the spec's rules; field names it."""

    def __init__(self, message, field):
        super().__init__(message)
        self.field = field
