"""Exception types shared across the package."""


class TsrgError(Exception):
    """Base class for all package errors."""


class DimensionError(TsrgError):
    """Shapes or dimensions of inputs do not line up."""


class NumericalError(TsrgError):
    """A numerical routine failed (e.g. the solver's eigendecomposition did not converge)."""


class NonFiniteError(TsrgError):
    """An iterate or input contains NaN/Inf."""


class EmptyClassError(TsrgError):
    """A training class has no samples."""


class ClipTooSmall(TsrgError):
    """A video clip (or one of its blocks) is too small for the configured radius."""


class IngestionError(TsrgError):
    """A manifest, feature, clip or record file could not be read."""


class EmptyDatasetError(IngestionError):
    """Manifest resolved to zero samples."""


class LabelMapError(TsrgError):
    """A label map is malformed, or a label has no mapping and no drop policy."""


class UnmappedLabelError(LabelMapError):
    """A label has no mapping and no drop policy."""


class SpecError(TsrgError):
    """A synthetic-data spec is invalid (e.g. a shift offset of the wrong length)."""
