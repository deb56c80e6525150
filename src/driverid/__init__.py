"""Driver identification from in-vehicle telemetry.

The package covers the full pipeline: decoding OBD-II sensor payloads
(:mod:`driverid.obd`), loading labeled trip logs (:mod:`driverid.ingest`),
feature selection / normalization / sliding-window statistics
(:mod:`driverid.features`), a family of from-scratch classifiers
(:mod:`driverid.models`), stratified cross-validation with confusion-matrix
metrics (:mod:`driverid.evaluate`), and preset end-to-end runs
(:mod:`driverid.pipeline`).  ``driverid.cli`` exposes all of it as the
``driverid`` command.
"""

from . import errors, evaluate, features, ingest, models, obd, pipeline
from .errors import DriverIdError
from .evaluate import (
    ConfusionMatrix,
    CvPlan,
    Folds,
    MetricsReport,
    baseline_compare,
    confusion_from_predictions,
    cross_validate,
    fold_assignments,
    metrics,
    per_class_counts,
)
from .features import (
    DEFAULT_FIXED_FEATURES,
    FeatureMatrix,
    FeatureSelectionReport,
    NormalizationParams,
    WindowSpec,
    apply_normalizer,
    extract_windows,
    fit_normalizer,
    select_features,
    window_count,
)
from .ingest import (
    TripDataset,
    class_distribution,
    filter_labels,
    load_dataset,
)
from .models import KINDS, load_model, make, save_model, train
from .pipeline import RunConfig, preset_config, run_pipeline

__version__ = "1.0.0"

__all__ = [
    "errors",
    "evaluate",
    "features",
    "ingest",
    "models",
    "obd",
    "pipeline",
    "DriverIdError",
    "ConfusionMatrix",
    "CvPlan",
    "Folds",
    "MetricsReport",
    "baseline_compare",
    "confusion_from_predictions",
    "cross_validate",
    "fold_assignments",
    "metrics",
    "per_class_counts",
    "DEFAULT_FIXED_FEATURES",
    "FeatureMatrix",
    "FeatureSelectionReport",
    "NormalizationParams",
    "WindowSpec",
    "apply_normalizer",
    "extract_windows",
    "fit_normalizer",
    "select_features",
    "window_count",
    "TripDataset",
    "class_distribution",
    "filter_labels",
    "load_dataset",
    "KINDS",
    "load_model",
    "make",
    "save_model",
    "train",
    "RunConfig",
    "preset_config",
    "run_pipeline",
    "__version__",
]
