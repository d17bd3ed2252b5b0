"""Exception types shared across the package."""


class ParaholError(Exception):
    """Base class for all package errors."""


class MismatchedAlgebraError(ParaholError):
    """Two elements of different algebras were combined."""


class GradeRangeError(ParaholError):
    """A grade index outside [-k, k] was requested."""


class StructureError(ParaholError):
    """An algebra failed a structural invariant (span, grading, nondegeneracy...)."""


class InvalidScaleError(ParaholError):
    """An element is not a scale element: not a nonzero multiple of the
    grading element."""


class DomainError(ParaholError):
    """An argument lies outside the operation's domain."""


class SchemaViolation(ParaholError):
    """A request does not match its JSON schema.

    `message` and `json_path` are the ones jsonschema reports for the same
    request and schema (see `schemas.validate`).
    """

    def __init__(self, message, json_path):
        super().__init__(message)
        self.message = message
        self.json_path = json_path


class UnsupportedDepthError(ParaholError):
    """The grading depth k of the algebra is not supported by this operation."""


class NonSingularPointError(ParaholError):
    """Holonomy extraction was requested at a point where the field does not vanish.

    The automorphism is locally inessential near such a point, so no
    classifier run is needed; callers should use the shortcut verdict.
    """


class ChartEscapeError(ParaholError):
    """A numeric flow left the affine chart before the requested time."""

    def __init__(self, message, escape_time=None):
        super().__init__(message)
        self.escape_time = escape_time


class WeylSectionInapplicableError(ParaholError):
    """The Weyl-section commutation check requires holonomy conjugate into grade 0."""


class OracleRefusedError(ParaholError):
    """The brute-force oracle refuses instances it cannot search exhaustively.

    `argument` names the oracle argument that is too large: "algebra" for a
    positive part over the dimension limit, "grid_steps" for a lattice over
    the point limit.
    """

    def __init__(self, message, argument):
        super().__init__(message)
        self.argument = argument
