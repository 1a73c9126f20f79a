"""Exception types shared across the package."""


class PrimeBoundsError(Exception):
    """Base class for all package-specific errors."""


class CapacityError(PrimeBoundsError):
    """Requested range exceeds the exact-conversion capacity (2**53)."""


class NonContiguousSegmentError(PrimeBoundsError):
    """Segment does not start immediately after the accumulator state."""


class ChecksumMismatchError(PrimeBoundsError):
    """Checkpoint or resume state was produced under a different config."""


class CheckpointFormatError(PrimeBoundsError):
    """Checkpoint line is malformed or has an unsupported version."""


class InvalidRangeError(PrimeBoundsError):
    """Integration or verification range is empty or out of domain."""


class PrecisionUnsupportedError(PrimeBoundsError):
    """More digits requested than the stored constants provide."""


class UnknownBoundError(PrimeBoundsError):
    """Registry lookup failed."""


class UnsupportedKindError(PrimeBoundsError):
    """Operation is not defined for this bound kind."""


class DenominatorNonpositiveError(PrimeBoundsError):
    """Rational bound evaluated where its denominator is not positive."""


class ZeroPolynomialError(PrimeBoundsError):
    """Sturm certificate requested for the zero polynomial."""


class NoCertificateError(PrimeBoundsError):
    """verify refused to scan: no shape certificate for the bound side."""


class MismatchedStateError(PrimeBoundsError):
    """Accumulator state does not match the evaluation point."""


class OverlappingRangesError(PrimeBoundsError):
    """Reports cover overlapping ranges and cannot be merged."""


class ReportMismatchError(PrimeBoundsError):
    """Reports describe different bounds or tool versions."""


class FastLaneMismatchError(PrimeBoundsError):
    """A float fast-lane verdict was contradicted by its exact recheck."""
