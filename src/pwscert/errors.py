"""Exception hierarchy shared across the package.

Every error carries a machine-readable ``kind`` so the CLI can emit
single-line ``kind: message`` diagnostics.  ``check_real``, ``check_integer``
and ``check_count`` are the shared checks of configuration numbers.
"""

import math
import numbers
import sys


class PwsError(Exception):
    """Base class for all package errors."""

    kind = "error"


class NonPositiveDepth(PwsError):
    """A point lies on or behind the camera plane somewhere in the motion range."""

    kind = "non_positive_depth"


class ShapeMismatch(PwsError):
    """Array shapes disagree (images, clouds, classifier inputs)."""

    kind = "shape_mismatch"


class DegenerateInterval(PwsError):
    """Partition bound collapsed below the analysis resolution."""

    kind = "degenerate_interval"


class NegativeMargin(PwsError):
    """One-frame projection span does not exceed twice the convexity slack."""

    kind = "negative_margin"


class InvalidDelta(PwsError):
    """Requested partition spacing is outside (0, 2b]."""

    kind = "invalid_delta"


class DegenerateDataset(PwsError):
    """Training data is unusable (missing labels, single class)."""

    kind = "degenerate_dataset"


class EmptyFrame(PwsError):
    """Reference render covers no pixel at all."""

    kind = "empty_frame"


class InvalidRange(PwsError):
    """Scene generation parameter outside its allowed range."""

    kind = "invalid_range"


class DomainError(PwsError):
    """Mathematical function evaluated outside its domain."""

    kind = "domain_error"


class NonFiniteScores(PwsError):
    """A classifier scored an image, or mapped it to logits, with NaN or infinity."""

    kind = "non_finite_scores"


class ConfigError(PwsError, ValueError):
    """Bad run configuration (CLI exits with status 2)."""

    kind = "config_error"


class InvalidCloud(PwsError, ValueError):
    """Cloud points or colors are not finite, or colors leave [0, 1]."""

    kind = "invalid_cloud"


class FileFormatError(PwsError, ValueError):
    """A file is not in its declared format, or is cut short."""

    kind = "file_format"


class MissingFile(PwsError, FileNotFoundError):
    """A file that an input directory must hold is not there."""

    kind = "missing_file"


class PathError(PwsError):
    """The system refused a file operation, as on a path of the wrong kind."""

    kind = "path_error"


def check_real(value, holds, message: str) -> None:
    """``ConfigError(message)`` unless ``value`` is a real number, not a bool
    or a string, for which ``holds(value)`` is true; NaN fails every range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not holds(value):
        raise ConfigError(message)


def check_integer(value, holds, message: str) -> None:
    """``ConfigError(message)`` unless ``value`` is an integer, not a bool,
    for which ``holds(value)`` is true: 24.0 is no pixel count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not holds(value):
        raise ConfigError(message)


# the largest noise sigma whose square, the noise variance, is finite
MAX_SIGMA = math.sqrt(sys.float_info.max)
# the most poses of a uniform pose list, and the most noise draws of a
# tally: 2^24 float64 values are 128 MiB
MAX_COUNT = 1 << 24


def check_count(count, least: int, what: str) -> None:
    """``ConfigError`` unless ``count`` is an integer from ``least`` to 2^24."""
    check_integer(count, lambda c: c >= least, f"{what} must be at least {least}, got {count!r}")
    check_integer(count, lambda c: c <= MAX_COUNT, f"{what} must be at most 2^24, got {count!r}")
