"""Exception types raised across the package."""


class TreeOTError(Exception):
    """Base class for all errors raised by treeot."""


class NotConnected(TreeOTError):
    """The input graph is not connected."""


class HasCycle(TreeOTError):
    """The input graph contains a cycle (or self-loop) where a tree is required."""


class DuplicateEdge(TreeOTError):
    """The same undirected edge was supplied more than once."""


class MassMismatch(TreeOTError):
    """Two measures that must have equal total mass do not."""


class TooLarge(TreeOTError):
    """An instance exceeds a stated size cap: the support cap of the exact LP
    oracle, the bit budget of the tree route's integer charges, or the size of
    a family's series."""


class InvalidParams(TreeOTError):
    """Parameters outside the admissible range (e.g. q < 2 or d < 1)."""


class TruncationTooSmall(TreeOTError):
    """A truncated tree is too small to hold the requested measure without clipping."""


class InvalidAlpha(TreeOTError):
    """Laziness parameter outside [0, 1)."""


class NonUnitDivisor(TreeOTError):
    """Series division needs a dividend that vanishes below the divisor's
    lowest power of y; a square root needs a nonzero constant term."""


class InexactDivision(TreeOTError):
    """An integer-scaled series step would have to round: the base does not
    clear the denominators of the result."""


class NonSquareConstantTerm(TreeOTError):
    """Series square root requires the constant term to be the square of a rational."""


class OrderExceeded(TreeOTError):
    """A coefficient beyond the truncation order of a series was requested."""
