"""Exception types shared across the package.

Every error raised on a bad input derives from :class:`DriverIdError`, so
callers (and the CLI) can catch one base class.  Where a standard category
fits, the class also inherits from it (``LookupError``, ``ValueError``).
"""


class DriverIdError(Exception):
    """Base class for all errors raised by this package."""


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
