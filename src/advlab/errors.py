"""Exception types shared across the package."""


class AdvlabError(Exception):
    """Base class for all advlab errors."""


class DimensionMismatchError(AdvlabError, ValueError):
    """Two arrays that must share a shape do not."""


class DegenerateImageError(AdvlabError, ValueError):
    """Image has a single intensity level; no threshold can split it."""


class NoContourError(AdvlabError, ValueError):
    """Binarization produced no foreground, so no contour exists."""


class EmptyRoIError(AdvlabError, ValueError):
    """Region-of-interest mask contains no pixels."""


class ShapeMismatchError(AdvlabError, ValueError):
    """Layer stack is inconsistent with the propagated activation shape."""

    def __init__(self, message: str, layer_index: int | None = None):
        super().__init__(message)
        self.layer_index = layer_index


class InvalidLabelError(AdvlabError, ValueError):
    """Label is not valid for the network head."""


class EmptyBatchError(AdvlabError, ValueError):
    """Gradient computation requested on an empty batch."""


class EmptyDatasetError(AdvlabError, ValueError):
    """Training requested on an empty dataset."""


class NonPositiveTemperatureError(AdvlabError, ValueError):
    """Softmax temperature must be finite and strictly positive."""


class ZeroGradientError(AdvlabError, ArithmeticError):
    """Loss gradient vanished; the attack cannot make progress."""


class ZeroImageError(AdvlabError, ValueError):
    """Reference image has zero norm; relative perturbation is undefined."""


class EmptySetError(AdvlabError, ValueError):
    """Metric requested on an empty collection."""


class SingleClassError(AdvlabError, ValueError):
    """ROC-AUC needs at least one positive and one negative sample."""


class MissingFileError(AdvlabError, FileNotFoundError):
    """A file referenced by a manifest does not exist."""


class BadFormatError(AdvlabError, ValueError):
    """File contents do not parse as the expected format."""


class BadLabelError(AdvlabError, ValueError):
    """Manifest entry carries a label outside {0, 1}."""


class IoError(AdvlabError, OSError):
    """Report or artifact could not be written."""
