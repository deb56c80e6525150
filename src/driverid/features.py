"""Feature selection, min-max normalization, and sliding-window statistics.

The preprocessing chain turns a raw :class:`~driverid.ingest.TripDataset`
into a model-ready :class:`FeatureMatrix`:

1. ``select_features`` picks the channel subset — either a fixed list of
   known-informative sensor channels or a correlation ranking against the
   driver label — and explains every discarded column.
2. ``fit_normalizer`` / ``apply_normalizer`` rescale each column by its
   training min/max into [0, 1] (test values may fall outside; they are not
   clipped).
3. ``extract_windows`` slides a fixed-length window along the time series
   and emits per-window mean / median / population std for every kept
   channel, dropping windows that straddle a driver change.

Like the dataset, a :class:`FeatureMatrix` holds its labels as
``(label_alphabet, codes)``; ranking, windowing and normalization use the codes.

Memory: ``extract_windows`` gathers the samples of at most
``_WINDOW_CHUNK_BYTES`` (2 MiB) of windows at once (at least one window),
and the median and std copy that chunk once more, so beyond its output
and a copy of the kept channels windowing holds a few chunks, whatever the
log's length.  Correlation ranking keeps one centred copy of the channels.

Median: ``_window_median`` gives ``np.median``'s result bit for bit from one
``np.partition`` at ``h = L // 2`` instead of numpy's three.  For odd ``L``
the median is element ``h``; for even ``L`` it is ``(a + b) / 2`` with
``a`` the largest element before ``h`` and ``b`` element ``h``, the same
two order statistics and the same sum and halving as numpy's two-value
mean.  Equal non-zero floats have equal bits, so only a zero (whose sign
numpy's summation decides), a non-finite result or a window holding a
NaN can differ; those rows alone are recomputed by ``np.median``, which
treats each row on its own, so they get the sign, NaN and warnings that
the whole chunk would have got.

Duplicates: ranking compares a candidate with a kept column element by
element only when their variances are equal.  Both come from one
``var(axis=0)``, which reduces every column the same way, so equal
columns (also equal up to the sign of zeros) always pass the screen.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import ingest
from .errors import (
    ColumnCountMismatch,
    DriverIdError,
    InvalidOption,
    UnknownFeatureName,
    WindowLongerThanSeries,
    finite_real,
    name_list,
    one_of,
    whole_number,
)

# Channel subset used by the fixed-list selection mode: powertrain torque and
# load channels, fuel trim/consumption, pedal position, temperatures, and the
# four wheel speeds.  Names are matched against the dataset header exactly
# first, else case- and punctuation-insensitively (see _resolve_columns).
DEFAULT_FIXED_FEATURES = (
    "Long term fuel trim bank1",
    "Intake air pressure",
    "Accelerator pedal value",
    "Fuel consumption",
    "Maximum indicated engine torque",
    "Engine torque",
    "Calculated load value",
    "Friction torque",
    "Activation of air compressor",
    "Engine coolant temperature",
    "Transmission oil temperature",
    "Wheel velocity front left-hand",
    "Wheel velocity front right-hand",
    "Wheel velocity rear left-hand",
    "Torque converter speed",
)

# Canonical spellings that differ between common header variants.
_NAME_ALIASES = {
    "friction_torque": "torque_of_friction",
    "torque_of_friction": "torque_of_friction",
}

ALLOWED_STATISTICS = ("mean", "median", "std")


def _canon(name: str) -> str:
    """Case/punctuation-insensitive column key: 'Calculated_LOAD_value' and
    'Calculated load value' both map to 'calculated_load_value'."""
    key = re.sub(r"[^0-9a-zA-Z]+", "_", name).strip("_").lower()
    return _NAME_ALIASES.get(key, key)


def _resolve_columns(column_names: Sequence[str], wanted: Sequence[str]) -> list[int]:
    """The column of each ``wanted`` name: the header name it equals, else
    the one column whose :func:`_canon` key it shares.  No such column, or
    several, raise :class:`UnknownFeatureName`."""
    exact: dict[str, int] = {}
    folded: dict[str, list[int]] = {}
    for i, name in enumerate(column_names):
        exact.setdefault(name, i)
        folded.setdefault(_canon(name), []).append(i)
    indices = []
    for name in wanted:
        matches = [exact[name]] if name in exact else folded.get(_canon(name), [])
        if not matches:
            raise UnknownFeatureName(
                f"no column matching {name!r} among {len(column_names)} columns"
            )
        if len(matches) > 1:
            raise UnknownFeatureName(
                f"{name!r} matches columns {[column_names[i] for i in matches]}; name one exactly"
            )
        if matches[0] in indices:
            raise InvalidOption(
                f"{name!r} requests column {column_names[matches[0]]!r} a second time"
            )
        indices.append(matches[0])
    return indices


@dataclass(frozen=True)
class FeatureSelectionReport:
    """Outcome of feature selection: what was kept and why the rest was not.

    The four discard buckets partition the non-kept columns:
    ``discarded_homogeneous`` (zero variance), ``discarded_irrelevant``
    (correlation with the label below threshold, or ranked past k),
    ``discarded_superfluous`` (exact duplicate of a kept column), and
    ``discarded_correlated`` (inter-feature correlation above threshold with
    a higher-ranked kept column).
    """

    kept: tuple[str, ...]
    discarded_homogeneous: tuple[str, ...]
    discarded_irrelevant: tuple[str, ...]
    discarded_superfluous: tuple[str, ...]
    discarded_correlated: tuple[str, ...]
    scores: dict[str, float]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        groups = (
            self.kept,
            self.discarded_homogeneous,
            self.discarded_irrelevant,
            self.discarded_superfluous,
            self.discarded_correlated,
        )
        names = [n for g in groups for n in g]
        if len(names) != len(set(names)):
            raise DriverIdError("selection groups overlap")

    def to_dict(self) -> dict:
        return {
            "kept": list(self.kept),
            "discarded_homogeneous": list(self.discarded_homogeneous),
            "discarded_irrelevant": list(self.discarded_irrelevant),
            "discarded_superfluous": list(self.discarded_superfluous),
            "discarded_correlated": list(self.discarded_correlated),
            "scores": dict(self.scores),
            "metadata": dict(self.metadata),
        }


def _label_correlation_scores(
    Xc: np.ndarray, x_std: np.ndarray, codes: np.ndarray
) -> np.ndarray:
    """Relevance score per column: |Pearson r| against each class's one-vs-rest
    indicator, averaged with class-prior weights.  ``Xc`` is the centred
    matrix and ``x_std`` its population std per column.  Zero-variance
    columns (and single-class indicators) contribute 0."""
    n = Xc.shape[0]
    indicators = (codes[:, None] == np.unique(codes)).astype(np.float64)
    priors = indicators.mean(axis=0)

    Ic = indicators - priors
    i_std = indicators.std(axis=0)

    cov = (Xc.T @ Ic) / n  # (d, n_classes)
    denom = np.outer(x_std, i_std)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(denom > 0, cov / np.where(denom > 0, denom, 1.0), 0.0)
    return np.abs(r) @ priors


#: Channel selection modes of :func:`select_features`.
SELECTION_MODES = ("fixed-list", "correlation-ranked")


def check_selection(mode: str, k, irrelevance_threshold, correlation_threshold) -> None:
    """Raise InvalidOption unless ``mode`` is one of SELECTION_MODES, ``k``
    (the correlation-ranked column count) a whole number >= 1 and both
    thresholds finite and >= 0 (above 1, the correlation threshold never
    discards a column)."""
    one_of("feature_mode", mode, SELECTION_MODES)
    whole_number("feature_count", k, 1)
    finite_real("irrelevance_threshold", irrelevance_threshold, 0.0)
    finite_real("correlation_threshold", correlation_threshold, 0.0)


def select_features(
    ds: ingest.TripDataset,
    mode: str = "fixed-list",
    *,
    k: int = 15,
    irrelevance_threshold: float = 0.01,
    correlation_threshold: float = 0.95,
    feature_list: Sequence[str] | None = None,
) -> FeatureSelectionReport:
    """Choose the channel subset to model on.

    ``mode="fixed-list"`` keeps ``feature_list`` (default
    :data:`DEFAULT_FIXED_FEATURES`) verbatim; the remaining columns are
    reported as homogeneous when constant and irrelevant otherwise, and no
    relevance scores are computed.

    ``mode="correlation-ranked"`` scores every column by prior-weighted
    one-vs-rest |Pearson| correlation with the driver label, walks the
    ranking in descending-score order, and keeps the first ``k`` columns
    that are not exact duplicates of (superfluous) or too correlated with
    (threshold ``correlation_threshold``) an already-kept column and whose
    score clears ``irrelevance_threshold``.
    """
    check_selection(mode, k, irrelevance_threshold, correlation_threshold)
    X = ds.channels
    names = ds.column_names

    if mode == "fixed-list":
        wanted = tuple(feature_list) if feature_list is not None else DEFAULT_FIXED_FEATURES
        kept_idx = _resolve_columns(names, wanted)
        kept_set = set(kept_idx)
        homogeneous, irrelevant = [], []
        variances = X.var(axis=0)
        for j, name in enumerate(names):
            if j in kept_set:
                continue
            (homogeneous if variances[j] == 0.0 else irrelevant).append(name)
        return FeatureSelectionReport(
            kept=tuple(names[j] for j in kept_idx),
            discarded_homogeneous=tuple(homogeneous),
            discarded_irrelevant=tuple(irrelevant),
            discarded_superfluous=(),
            discarded_correlated=(),
            scores={},
            metadata={"mode": mode, "requested": list(wanted)},
        )

    # One variance pass and one centred copy serve the scores and then,
    # scaled in place, the redundancy checks (np.std is np.sqrt of np.var).
    variances = X.var(axis=0)
    z = X - X.mean(axis=0)
    scores = _label_correlation_scores(z, np.sqrt(variances), ds.codes)
    score_map = {name: float(scores[j]) for j, name in enumerate(names)}

    homogeneous = [names[j] for j in range(len(names)) if variances[j] == 0.0]
    candidates = [j for j in range(len(names)) if variances[j] > 0.0]
    # Descending score; original column order breaks ties deterministically.
    candidates.sort(key=lambda j: (-scores[j], j))

    # Pairwise correlation matrix for the redundancy checks (d is small).
    with np.errstate(invalid="ignore", divide="ignore"):
        z /= np.where(variances > 0, np.sqrt(variances), 1.0)
    corr = (z.T @ z) / X.shape[0]

    kept_idx: list[int] = []
    superfluous, correlated, irrelevant = [], [], []
    for j in candidates:
        # Equal columns have equal variances (one reduction over the same
        # values), so the cheap test screens the column comparison.
        dup = next(
            (i for i in kept_idx
             if variances[i] == variances[j] and np.array_equal(X[:, i], X[:, j])),
            None,
        )
        if dup is not None:
            superfluous.append(names[j])
            continue
        shadow = next((i for i in kept_idx if abs(corr[i, j]) > correlation_threshold), None)
        if shadow is not None:
            correlated.append(names[j])
            continue
        if scores[j] < irrelevance_threshold or len(kept_idx) >= k:
            irrelevant.append(names[j])
            continue
        kept_idx.append(j)

    return FeatureSelectionReport(
        kept=tuple(names[j] for j in kept_idx),
        discarded_homogeneous=tuple(homogeneous),
        discarded_irrelevant=tuple(irrelevant),
        discarded_superfluous=tuple(superfluous),
        discarded_correlated=tuple(correlated),
        scores=score_map,
        metadata={
            "mode": mode,
            "k": k,
            "irrelevance_threshold": irrelevance_threshold,
            "correlation_threshold": correlation_threshold,
        },
    )


@dataclass(frozen=True, eq=False)
class NormalizationParams:
    """Per-column (min, max) fitted on training rows only; both finite."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self) -> None:
        if self.mins.shape != self.maxs.shape or self.mins.ndim != 1:
            raise DriverIdError("mins/maxs must be matching 1-D arrays")
        if not (np.isfinite(self.mins).all() and np.isfinite(self.maxs).all()):
            raise DriverIdError("per-column min and max must be finite")
        if np.any(self.mins > self.maxs):
            raise DriverIdError("per-column min exceeds max")
        self.mins.flags.writeable = False
        self.maxs.flags.writeable = False

    @property
    def n_columns(self) -> int:
        return self.mins.shape[0]

    def to_dict(self) -> dict:
        return {"mins": [float(v) for v in self.mins], "maxs": [float(v) for v in self.maxs]}

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationParams":
        return cls(
            mins=np.asarray(d["mins"], dtype=np.float64),
            maxs=np.asarray(d["maxs"], dtype=np.float64),
        )


def fit_normalizer(train) -> NormalizationParams:
    """Column-wise min/max of the training matrix (FeatureMatrix or array)."""
    X = train.features if isinstance(train, FeatureMatrix) else np.asarray(train, dtype=np.float64)
    if X.size == 0:
        raise DriverIdError("cannot fit a normalizer on an empty matrix")
    return NormalizationParams(mins=X.min(axis=0).copy(), maxs=X.max(axis=0).copy())


def apply_normalizer(params: NormalizationParams, m):
    """Rescale each column to (x - min)/(max - min).

    Values outside the fitted range map outside [0, 1] — no clipping.
    Columns that were constant in the fitting data map to 0.0 everywhere.
    Accepts and returns either a FeatureMatrix or a bare array.
    """
    is_matrix = isinstance(m, FeatureMatrix)
    X = m.features if is_matrix else np.asarray(m, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.n_columns:
        raise ColumnCountMismatch(
            f"matrix has {X.shape[1] if X.ndim == 2 else 'non-2D'} columns, "
            f"params were fitted on {params.n_columns}"
        )
    span = params.maxs - params.mins
    safe = np.where(span > 0, span, 1.0)
    out = (X - params.mins) / safe
    out[:, span == 0] = 0.0
    if is_matrix:
        return FeatureMatrix(m.column_names, out, m.label_alphabet, m.codes)
    return out


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry and the statistics computed per window."""

    length: int = 60
    stride: int = 1
    statistics: tuple[str, ...] = ALLOWED_STATISTICS

    def __post_init__(self) -> None:
        object.__setattr__(self, "length", whole_number("window length", self.length, 2))
        object.__setattr__(self, "stride", whole_number("stride", self.stride, 1))
        if self.stride > self.length:
            raise InvalidOption(
                f"stride {self.stride} must not exceed window length {self.length} "
                "(windows must tile or overlap, not skip samples)"
            )
        stats = tuple(dict.fromkeys(one_of("statistics", s, ALLOWED_STATISTICS)
                                    for s in name_list("statistics", self.statistics)))
        if not stats:
            raise InvalidOption("at least one window statistic is required")
        object.__setattr__(self, "statistics", stats)

    def to_dict(self) -> dict:
        return {"length": self.length, "stride": self.stride, "statistics": list(self.statistics)}


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Rectangular numeric matrix with one driver label per row.

    ``codes`` index the sorted ``label_alphabet``, which drops classes no row
    has (codes renumbered); ``labels`` decodes the codes on each access.
    """

    column_names: tuple[str, ...]
    features: np.ndarray
    label_alphabet: tuple[str, ...]
    codes: np.ndarray

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise DriverIdError("features must be a 2-D array")
        if self.features.shape[1] != len(self.column_names):
            raise ColumnCountMismatch(
                f"{len(self.column_names)} names for {self.features.shape[1]} columns"
            )
        alphabet, codes = ingest.present_classes(self.label_alphabet, self.codes)
        if codes.size != self.features.shape[0]:
            raise DriverIdError(f"{codes.size} labels for {self.features.shape[0]} rows")
        codes.flags.writeable = False
        object.__setattr__(self, "label_alphabet", alphabet)
        object.__setattr__(self, "codes", codes)
        self.features.flags.writeable = False

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(ingest.decode_labels(self.label_alphabet, self.codes))

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @classmethod
    def from_csv(cls, source, *, label_column: str = "Class") -> "FeatureMatrix":
        ds = ingest.load_dataset(source, label_column=label_column, exclude_columns=())
        return cls(ds.column_names, ds.channels, ds.label_alphabet, ds.codes)

    def to_csv(self, target, *, label_column: str = "Class") -> None:
        ingest.write_csv(
            target, self.column_names, self.features, self.label_alphabet, self.codes, label_column
        )


def window_count(n_samples: int, length: int, stride: int) -> int:
    """Number of window positions on an n-sample series: ⌊(n − L)/S⌋ + 1."""
    if n_samples < length:
        return 0
    return (n_samples - length) // stride + 1


#: Most bytes of window samples that :func:`extract_windows` gathers at
#: once (at least one window): windows × kept channels × length × 8.
_WINDOW_CHUNK_BYTES = 1 << 21


def _window_median(wins: np.ndarray) -> np.ndarray:
    """``np.median(wins, axis=-1)``, bit for bit, from one partition.

    ``np.median`` takes the mean of the order statistics ``h - 1`` and ``h``
    (``h = L // 2``) for even ``L`` and statistic ``h`` for odd ``L``.  One
    partition at ``h`` yields both: statistic ``h - 1`` is the largest value
    before it.  The values compare equal to numpy's, and ``a + b`` then
    ``/ 2`` is the arithmetic of a two-value mean, so every finite non-zero
    result has numpy's bits.  Rows whose result is zero or not
    finite, or whose window holds a NaN, are recomputed by ``np.median``
    itself: only there can the sign of a zero, a NaN or a warning differ.
    """
    L = wins.shape[-1]
    h = L // 2
    p = np.partition(wins, h, axis=-1)
    with np.errstate(invalid="ignore", over="ignore"):
        med = (p[..., :h].max(axis=-1) + p[..., h]) / 2 if L % 2 == 0 else p[..., h].copy()
    redo = ~np.isfinite(med) | (med == 0)
    nan = np.isnan(wins)
    if nan.any():  # a whole-chunk test is a third the cost of the per-row one
        redo |= nan.any(axis=-1)
    if redo.any():
        med[redo] = np.median(wins[redo], axis=-1)
    return med


def extract_windows(
    ds: ingest.TripDataset,
    kept: Sequence[str],
    spec: WindowSpec = WindowSpec(),
) -> tuple[FeatureMatrix, int]:
    """Slide the window along the trip log and compute per-channel statistics.

    Returns ``(matrix, n_dropped)`` where ``n_dropped`` counts window
    positions discarded because the driver label changed inside them.  Output
    columns are feature-major: ``<feature>_<stat>`` for each kept feature and
    each statistic in spec order.  Raises WindowLongerThanSeries when the log
    is shorter than one window.
    """
    cols = _resolve_columns(ds.column_names, kept)
    n = len(ds)
    L, S = spec.length, spec.stride
    if n < L:
        raise WindowLongerThanSeries(f"series has {n} samples, window needs {L}")

    starts = np.arange(window_count(n, L, S)) * S
    codes = ds.codes
    # Windows are label-uniform iff no label change occurs strictly inside
    # them; a cumulative change count makes that an O(1) range query.
    changes = np.concatenate([[0], np.cumsum(codes[1:] != codes[:-1])])
    uniform = changes[starts + L - 1] == changes[starts]
    kept_starts = starts[uniform]
    n_dropped = int(starts.size - kept_starts.size)

    data = ds.channels[:, cols]
    d = len(cols)
    n_stats = len(spec.statistics)
    out = np.empty((kept_starts.size, d * n_stats), dtype=np.float64)

    # Each window's statistics reduce only its own samples, so the chunk
    # size changes how much is held at once, never a value.
    chunk = max(1, _WINDOW_CHUNK_BYTES // (max(1, d) * L * data.itemsize))
    view = np.lib.stride_tricks.sliding_window_view(data, L, axis=0)  # (n-L+1, d, L)
    for lo in range(0, kept_starts.size, chunk):
        part = kept_starts[lo : lo + chunk]
        wins = view[part]  # (chunk, d, L)
        pieces = []
        for stat in spec.statistics:
            if stat == "mean":
                pieces.append(wins.mean(axis=-1))
            elif stat == "median":
                pieces.append(_window_median(wins))
            else:
                pieces.append(wins.std(axis=-1))
        # (chunk, d, n_stats) reshaped feature-major.
        out[lo : lo + part.size] = np.stack(pieces, axis=-1).reshape(part.size, d * n_stats)

    names = tuple(
        f"{ds.column_names[c]}_{stat}" for c in cols for stat in spec.statistics
    )
    return FeatureMatrix(names, out, ds.label_alphabet, codes[kept_starts]), n_dropped
