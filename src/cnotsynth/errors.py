"""Exception types shared across the package."""


class CnotSynthError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(CnotSynthError):
    """Operands have incompatible shapes."""


class SingularMatrix(CnotSynthError):
    """A matrix required to be invertible over GF(2) is singular."""


class MalformedLayer(CnotSynthError):
    """A layer's gates do not touch pairwise-disjoint wires."""


class NotLowerTriangular(CnotSynthError):
    """Input is not unit lower triangular."""


class LaybyFailure(CnotSynthError):
    """No layby satisfying the occurrence bound was found."""


class MalformedTree(CnotSynthError):
    """Input is not a proper binary tree with unique leaf labels."""


class TooLarge(CnotSynthError):
    """Instance exceeds a size limit: the exact oracle's, or the int32 wire
    indices of a levelled circuit."""
