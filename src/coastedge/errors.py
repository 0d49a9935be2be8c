"""Exception hierarchy for the toolkit."""


class CoastEdgeError(Exception):
    """Base class for all toolkit errors."""


class FormatError(CoastEdgeError):
    """File does not match the expected binary format."""


class UnsupportedLayout(FormatError):
    """Array stored in a memory layout we do not read (Fortran order)."""


class UnsupportedDtype(FormatError):
    """Array element type outside the supported set (u8/u16/f32/f64, little-endian)."""


class IoError(CoastEdgeError):
    """Underlying file read/write failure."""


class ShapeError(CoastEdgeError):
    """Array dimensions do not match what the operation requires."""


class SampleError(CoastEdgeError, ValueError):
    """Band samples that are not finite and non-negative."""


class LabelError(CoastEdgeError):
    """Land/water label is not strictly binary."""


class BandCountError(CoastEdgeError):
    """Image stack does not carry exactly 12 bands."""


class KernelTooLarge(CoastEdgeError):
    """Convolution kernel or window exceeds the image size."""


class ParamError(CoastEdgeError):
    """Invalid algorithm parameters."""


class WindowError(CoastEdgeError):
    """Image smaller than the metric's sliding window."""


class CorpusError(CoastEdgeError):
    """Corpus manifest unreadable or inconsistent."""
