"""Exception types shared across the package, the guarded reads that turn a
file that cannot be read, decoded or parsed into a ``DataError``, the one
check of a JSON value's type (``is_json``) behind every typed read of a
config, manifest or header, and ``write_json``.

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


class MissingInputError(DataError):
    """An input file that a run's config names does not exist."""


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


def is_json(value, kind: type) -> bool:
    """Whether ``value``, as ``json`` reads it, has the type ``kind`` (int,
    float, str, bool, list or dict). An integer is also a float; a bool is
    neither an integer nor a float."""
    return type(value) is kind or (kind is float and type(value) is int)


def json_field(doc, key, kind: type):
    """``doc[key]`` if ``is_json(doc[key], kind)``, as a float for a float
    field; a value of another type is a TypeError naming ``key``, and an
    integer too large for a float a ValueError."""
    value = doc[key]
    if not is_json(value, kind):
        raise TypeError(f"{key} {value!r} is not of type {kind.__name__}")
    try:
        return float(value) if kind is float else value
    except OverflowError:
        raise ValueError(f"{key} {value} is too large for a float") from None


def json_rows(doc: dict, key: str, names: tuple[str, ...]) -> list[list[int]]:
    """``doc[key]``, or ``[]`` without one, if it lists entries that are each a
    list of ``len(names)`` integers named ``names``; else a TypeError naming ``key``."""
    entries = json_field(doc, key, list) if key in doc else []
    for entry in entries:
        if not (is_json(entry, list) and len(entry) == len(names)
                and all(is_json(v, int) for v in entry)):
            raise TypeError(f"{key} entry {entry!r} is not [{', '.join(names)}] integers")
    return entries


def write_json(path, doc) -> None:
    """Write ``doc`` as UTF-8 JSON with sorted keys, indent 1 and a final newline."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
