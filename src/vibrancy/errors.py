"""Exception types shared across the package, and the guarded reads that
turn a file that cannot be read, decoded or parsed into a ``DataError``.

The CLI maps these onto exit codes: usage problems exit 1, ``DataError``
subtypes exit 2, ``NumericError`` subtypes exit 3.
"""

import json
from pathlib import Path


class VibrancyError(Exception):
    """Base class for all package-specific errors."""


class DataError(VibrancyError):
    """Malformed, inconsistent, or missing input data."""


class NumericError(VibrancyError):
    """Numerically invalid state: bad shapes, non-finite values, degenerate inputs."""


class OutOfBoundsError(DataError):
    """A point or cell lies outside the grid envelope or region."""


class DuplicateServiceError(DataError):
    """A service appears more than once in a service taxonomy file."""


class EmptyCategoryListError(DataError):
    """A taxonomy file defines no categories at all."""


class UnknownServiceError(DataError):
    """A traffic row names a service the taxonomy does not cover."""


class EmptyInputError(DataError):
    """An operation that needs at least one record received none."""


class InvalidSpecError(DataError):
    """A synthetic-city spec violates its own constraints."""


class ConfigError(DataError):
    """A pipeline config file cannot be parsed or fails validation."""


class TooFewLocationsError(NumericError):
    """Relative-risk normalization needs at least two locations."""


class TooFewRowsError(NumericError):
    """Standardization needs at least two rows."""


class ShapeMismatchError(NumericError):
    """Two arrays that must share a shape do not."""


class KTooLargeError(NumericError):
    """Requested more clusters than there are points."""


class NonFiniteError(NumericError):
    """An input array contains NaN or infinity."""


class SingleClusterError(NumericError):
    """Silhouette needs at least two distinct clusters."""


class SingleClassError(NumericError):
    """Classification needs at least two distinct labels."""


class LengthMismatchError(NumericError):
    """Two sequences that must have equal length do not."""


class DimensionMismatchError(NumericError):
    """A covariate vector does not match the model's dimension."""


class NotFittedError(VibrancyError):
    """The model has no parameters yet."""


def read_text(path, what: str) -> str:
    """The UTF-8 text of the ``what`` file at ``path``; a file that cannot be
    read or is not UTF-8 is a DataError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def read_json(path, what: str):
    """The JSON document in the ``what`` file at ``path``; a file that
    ``read_text`` refuses or that is not JSON is a DataError naming it."""
    try:
        return json.loads(read_text(path, what))
    except json.JSONDecodeError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
