"""Exception types shared by every module in the package."""


class ToolkitError(Exception):
    """Base class for all errors raised on purpose by this package."""


class DimensionMismatch(ToolkitError):
    """Operands live in spaces of different (or incompatible) dimensions."""


class NotNilpotent(ToolkitError):
    """A matrix expected to be nilpotent is not."""


class NonNilpotent(ToolkitError):
    """An algebra expected to be nilpotent is not."""


class NotFiltered(ToolkitError):
    """Some [L^i, L^j] of a nilpotent algebra leaves L^(i+j), so there is
    no graded product.  ``pair`` holds the 1-based graded indices of the
    first two sections, of degrees i and j, whose bracket leaves it; the
    message also names each section's leading basis vector e_k, given in
    ``leads``."""

    def __init__(self, pair, i, j, leads):
        super().__init__(f"[L^{i}, L^{j}] is not inside L^{i + j}: sections "
                         f"{pair[0]} (e_{leads[0]}) and {pair[1]} "
                         f"(e_{leads[1]}) bracket outside it")
        self.pair = pair


class ElementInDerivedSubalgebra(ToolkitError):
    """The probe element lies in the span of all products, where the
    characteristic sequence is not defined."""


class DocumentError(ToolkitError, SyntaxError):
    """Malformed document text (bad syntax or schema).

    Carries a line/column position when the underlying reader provides one.
    Also a SyntaxError so callers can catch document trouble generically.
    """

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class DuplicateEntry(DocumentError):
    """The same table cell appears twice in a document."""


class IndexOutOfRange(ToolkitError, IndexError):
    """A 1-based basis index outside 1..dim, or a 0-based matrix index
    outside the matrix; a dimension too small is ``DimensionTooSmall``."""


class DimensionTooSmall(ToolkitError):
    """A builder was asked for a dimension below its documented minimum."""


class ParityViolation(ToolkitError):
    """The requested dimension has the wrong parity for these parameters."""


class InadmissibleParams(ToolkitError):
    """Parameter values outside the admissible set for the requested family."""


class UnknownFamily(ToolkitError):
    """No catalog family with the requested identifier."""


class SingularChange(ToolkitError):
    """A basis-change matrix is not invertible."""


class RestrictionViolated(ToolkitError):
    """A parameter map was evaluated where one of its defining denominator
    factors vanishes.  ``factor`` names the vanishing factor."""

    def __init__(self, factor, message=None):
        super().__init__(message or f"restriction violated: {factor} = 0")
        self.factor = factor


class EpsilonMismatch(ToolkitError):
    """Equivalence was asked across different top-product markers."""


class NotNormalForm(ToolkitError):
    """A structure tensor does not have the expected normal-form shape."""
