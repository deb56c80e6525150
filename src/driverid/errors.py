"""Exception types shared across the package, the checks of an option, and
:func:`reading`, the one place where a malformed input file becomes an error.

Every error raised on a bad input derives from :class:`DriverIdError`, so
callers (and the CLI) can catch one base class.  Where a standard category
fits, the class also inherits from it (``LookupError``, ``ValueError``).

Each option is checked once, by the type that stores it: a model by its
constructor, ``WindowSpec``, ``CvPlan`` and ``RunConfig`` when they are
built, the selection options by ``features.check_selection``.  Every count
and seed among them goes through :func:`whole_number`, every real through
:func:`finite_real`, every choice through :func:`one_of` and every list
of names through :func:`name_list`; each raises :class:`InvalidOption`
naming the option.
"""

import csv
import math
import numbers
from contextlib import contextmanager


class DriverIdError(Exception):
    """Base class for all errors raised by this package."""


@contextmanager
def reading(what: str):
    """Read one input in the block, where its undecodable bytes, bad CSV or
    JSON (nested past the recursion limit too), or ill-fitting document
    raise DriverIdError naming ``what``.  A DriverIdError raised in the
    block keeps its type, with ``what`` put before its message."""
    try:
        yield
    except DriverIdError as e:
        raise type(e)(f"{what}: {e}") from e
    except (csv.Error, LookupError, TypeError, ValueError, AttributeError, RecursionError) as e:
        raise DriverIdError(f"{what}: {type(e).__name__}: {e}") from e


# --- options ---

class InvalidOption(DriverIdError, ValueError):
    """An option value is out of range or of the wrong type."""


def whole_number(name: str, value, minimum: int) -> int:
    """``value`` as an int, for a count or seed option.

    Bools, non-integral numbers and values below ``minimum`` raise
    InvalidOption, so an option is never silently truncated.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not (isinstance(value, numbers.Integral) or float(value).is_integer())
        or value < minimum
    ):
        raise InvalidOption(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def finite_real(
    name: str, value, low: float, high: float = math.inf, *, strict: bool = False
) -> float:
    """``value`` as a float, for a real option in [low, high], or in
    (low, high) when ``strict``.

    Bools, strings, NaN, ±inf, ints too large for a float and values out
    of range raise InvalidOption.
    """
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            pass
    if not (math.isfinite(number) and (low < number < high if strict else low <= number <= high)):
        opening = "(" if strict else "["
        closing = ")" if strict or high == math.inf else "]"
        raise InvalidOption(
            f"{name} must be a finite number in {opening}{low:g}, {high:g}{closing}, got {value!r}"
        )
    return number


def one_of(name: str, value, choices: tuple[str, ...]) -> str:
    """``value`` if it is one of the names in ``choices``, else InvalidOption."""
    if not (isinstance(value, str) and value in choices):
        raise InvalidOption(f"{name} must be one of {choices}, got {value!r}")
    return value


def name_list(name: str, value) -> tuple[str, ...]:
    """``value`` as a tuple, for an option that lists names: a list or tuple
    of strings.  A bare string is not a list of its characters."""
    if not (isinstance(value, (tuple, list)) and all(isinstance(n, str) for n in value)):
        raise InvalidOption(f"{name} must be a list of names, got {value!r}")
    return tuple(value)


# --- OBD codec ---

class UnknownPid(DriverIdError, LookupError):
    """Service/PID pair is not present in the registry."""


class PayloadLengthMismatch(DriverIdError, ValueError):
    """Payload byte count does not match the descriptor (malformed frame)."""


# --- ingestion ---

class MissingLabelColumn(DriverIdError, ValueError):
    """The configured label column is absent from the header."""


class RaggedRow(DriverIdError, ValueError):
    """A data row has the wrong number of fields."""


class NonNumericCell(DriverIdError, ValueError):
    """A feature cell could not be parsed as a number."""


class EmptyDataset(DriverIdError, ValueError):
    """No data rows (or no rows left after filtering)."""


class UnknownLabel(DriverIdError, LookupError):
    """A requested class label is not in the dataset's alphabet."""


# --- feature preparation ---

class UnknownFeatureName(DriverIdError, LookupError):
    """A referenced feature is not a column of the dataset."""


class ColumnCountMismatch(DriverIdError, ValueError):
    """Normalization parameters and matrix disagree on column count."""


class WindowLongerThanSeries(DriverIdError, ValueError):
    """Window length exceeds the number of samples."""


# --- models ---

class DimensionMismatch(DriverIdError, ValueError):
    """Vector dimensions disagree (query vs. training, x vs. y)."""


class LengthMismatch(DriverIdError, ValueError):
    """Two sequences that must align have different lengths."""


class EmptyTrainingSet(DriverIdError, ValueError):
    """fit() called with zero rows."""


class SingleClassForDiscriminative(DriverIdError, ValueError):
    """A discriminative model needs at least two classes."""


class NonFiniteFeature(DriverIdError, ValueError):
    """Training data contains NaN or infinity."""


# --- evaluation ---

class EmptyMatrix(DriverIdError, ValueError):
    """Confusion matrix contains no instances."""


class TooFewInstancesPerClass(DriverIdError, ValueError):
    """Stratified folding impossible: a class has fewer rows than folds."""


class NoBaselineDesignated(DriverIdError, ValueError):
    """Report comparison requires a baseline report."""
