"""Exception types shared across the package."""


class RectcrysError(Exception):
    """Base class for errors raised by this package."""


class NonLRError(RectcrysError):
    """A word or tableau fails the required Littlewood-Richardson property."""


class ShapeMismatchError(RectcrysError):
    """Two tableaux that must share a shape do not."""


class InconsistentPairError(RectcrysError):
    """A tableau pair is not in the image of the RSK map."""


class RowNError(RectcrysError):
    """A corner cell sits in the bottom row, where the cocyclage step is undefined."""


class NotPartitionOfNError(RectcrysError):
    """The given sequence is not a partition of the required size."""
