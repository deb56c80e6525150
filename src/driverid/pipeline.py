"""End-to-end runs: ingest → select → window → cross-validate → report.

A :class:`RunConfig` captures every knob of a run and is embedded verbatim
in the emitted report, so re-running a report's config reproduces it
bit-for-bit (reports carry no timestamps, and all randomness is seeded).

Two presets reproduce the headline benchmark setups: ``table6`` (binary
driver A vs D) and ``table7`` (all ten drivers).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace

from . import evaluate, ingest, models
from .errors import DriverIdError
from .features import SELECTION_MODES, WindowSpec, extract_windows, select_features
from .models.base import whole_number

#: Environment variable consulted for the benchmark dataset location.
DATASET_ENV_VAR = "OCSLAB_DRIVING_CSV"
#: Fallback dataset path relative to the working directory.
DATASET_DEFAULT_PATH = os.path.join("data", "driving_dataset.csv")


@dataclass(frozen=True)
class RunConfig:
    """Complete, serializable description of one pipeline run."""

    input: str
    label_column: str = ingest.DEFAULT_LABEL_COLUMN
    exclude_columns: tuple[str, ...] = ingest.DEFAULT_EXCLUDE_COLUMNS
    keep_labels: tuple[str, ...] | None = None
    feature_mode: str = "fixed-list"
    feature_count: int = 15
    feature_list: tuple[str, ...] | None = None
    irrelevance_threshold: float = 0.01
    correlation_threshold: float = 0.95
    window_length: int = 60
    window_stride: int = 1
    statistics: tuple[str, ...] = ("mean", "median", "std")
    normalize: str = "train"
    kinds: tuple[str, ...] = ("zeror", "knn", "reptree")
    model_configs: dict = field(default_factory=dict)
    folds: int = 10
    stratified: bool = True
    split_mode: str = "random-window"
    seed: int = 1
    out_dir: str | None = None

    def window_spec(self) -> WindowSpec:
        return WindowSpec(self.window_length, self.window_stride, self.statistics)

    def to_dict(self) -> dict:
        d = asdict(self)
        for key, value in d.items():
            if isinstance(value, tuple):
                d[key] = list(value)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        kwargs = dict(d)
        for key in ("exclude_columns", "keep_labels", "feature_list", "statistics", "kinds"):
            if kwargs.get(key) is not None:
                kwargs[key] = tuple(kwargs[key])
        unknown = set(kwargs) - set(cls.__dataclass_fields__)
        if unknown:
            raise DriverIdError(f"unknown config keys: {sorted(unknown)}")
        return cls(**kwargs)


#: Benchmark presets — model line-ups mirror the experiments they rerun:
#: the binary table6 setup includes logistic regression, the ten-driver
#: table7 setup does not.
PRESETS: dict[str, dict] = {
    "table6": {
        "keep_labels": ("A", "D"),
        "feature_mode": "fixed-list",
        "kinds": ("zeror", "naive_bayes", "logreg", "knn", "svm", "reptree", "adaboost"),
        "seed": 1,
    },
    "table7": {
        "keep_labels": None,
        "feature_mode": "fixed-list",
        "kinds": ("zeror", "naive_bayes", "knn", "svm", "reptree", "adaboost"),
        "seed": 1,
    },
}


def preset_config(name: str, input_path: str, **overrides) -> RunConfig:
    """RunConfig for a named preset, with optional field overrides."""
    if name not in PRESETS:
        raise DriverIdError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return replace(RunConfig(input=input_path, **PRESETS[name]), **overrides)


def default_dataset_path() -> str:
    """Benchmark dataset location: $OCSLAB_DRIVING_CSV or data/driving_dataset.csv."""
    return os.environ.get(DATASET_ENV_VAR) or DATASET_DEFAULT_PATH


def load_trips(config: RunConfig):
    """The trip log of ``config``, restricted to ``config.keep_labels``."""
    ds = ingest.load_dataset(
        config.input,
        label_column=config.label_column,
        exclude_columns=config.exclude_columns,
    )
    if config.keep_labels is not None:
        ds = ingest.filter_labels(ds, config.keep_labels)
    return ds


def prepare_matrix(config: RunConfig):
    """Run the data half of the pipeline.

    Returns ``(dataset, selection_report, matrix, n_dropped_windows)``.
    """
    ds = load_trips(config)
    selection = select_features(
        ds,
        config.feature_mode,
        k=config.feature_count,
        irrelevance_threshold=config.irrelevance_threshold,
        correlation_threshold=config.correlation_threshold,
        feature_list=config.feature_list,
    )
    matrix, n_dropped = extract_windows(ds, selection.kept, config.window_spec())
    return ds, selection, matrix, n_dropped


def cv_plan(config: RunConfig) -> evaluate.CvPlan:
    """The cross-validation plan of ``config``, after checking every option
    that needs no data.

    ``model_configs`` for kinds that do not run, kinds or model configs
    that ``models.make`` rejects, a bad feature mode or count, window,
    normalize policy or plan raise DriverIdError, so a run can fail before
    its data half.
    """
    stray = sorted(set(config.model_configs) - set(config.kinds))
    if stray:
        raise DriverIdError(f"model_configs for kinds that do not run: {stray}")
    for kind in config.kinds:
        models.make(kind, config.model_configs.get(kind))
    if config.feature_mode not in SELECTION_MODES:
        raise DriverIdError(
            f"feature_mode must be one of {SELECTION_MODES}, got {config.feature_mode!r}"
        )
    try:
        whole_number("feature_count", config.feature_count, 1)
    except ValueError as e:
        raise DriverIdError(str(e)) from None
    config.window_spec()
    evaluate.check_normalize(config.normalize)
    return evaluate.CvPlan(
        folds=config.folds,
        stratified=config.stratified,
        seed=config.seed,
        split_mode=config.split_mode,
    )


def cross_validate_kinds(config: RunConfig, matrix) -> tuple[dict, dict | None]:
    """Cross-validate each of ``config.kinds`` on ``matrix``, in that order.

    The folds and their normalizers are built once and shared by every kind.
    Returns ``({kind: MetricsReport}, comparison)``; ``comparison`` ranks them
    against ZeroR, or is None without a ``zeror`` run.  A config that
    :func:`cv_plan` rejects raises DriverIdError up front.
    """
    plan = cv_plan(config)
    folds = evaluate.Folds.build(matrix, plan, config.normalize)
    # One kind at a time, so only one kind's normalized fold copies are alive.
    results = {
        kind: evaluate.cross_validate(kind, config.model_configs.get(kind), folds)
        for kind in config.kinds
    }
    if evaluate.BASELINE_KIND not in results:
        return results, None
    return results, evaluate.baseline_compare(list(results.values()))


def dataset_summary(ds) -> dict:
    """Size, channels and class shares of a loaded trip log."""
    return {
        "n_records": len(ds),
        "n_channels": ds.n_channels,
        "label_alphabet": list(ds.label_alphabet),
        "class_distribution": ingest.class_distribution(ds),
    }


def windows_summary(config: RunConfig, matrix, n_dropped: int) -> dict:
    """Count, shape, class shares and geometry of the windows cut for ``config``."""
    return {
        "count": len(matrix),
        "dropped_mixed_label": n_dropped,
        "n_columns": matrix.n_features,
        "class_distribution": ingest.class_distribution(matrix),
        "spec": config.window_spec().to_dict(),
    }


def run_pipeline(config: RunConfig) -> dict:
    """Execute a full run and return the report bundle.

    The bundle nests the verbatim config, dataset and window summaries, the
    feature-selection report, one metrics report per model kind, and the
    baseline comparison (when a ZeroR run is present).  With
    ``config.out_dir`` set, the bundle is also written to
    ``<out_dir>/report.json``.
    """
    cv_plan(config)  # a bad model or CV option fails before the data half
    ds, selection, matrix, n_dropped = prepare_matrix(config)
    results, comparison = cross_validate_kinds(config, matrix)
    bundle = {
        "config": config.to_dict(),
        "dataset": dataset_summary(ds),
        "selection": selection.to_dict(),
        "windows": windows_summary(config, matrix, n_dropped),
        "results": {kind: rep.to_dict() for kind, rep in results.items()},
        "comparison": comparison,
    }
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        write_report(bundle, os.path.join(config.out_dir, "report.json"))
    return bundle


def write_report(bundle: dict, path: str) -> None:
    """Serialize a report deterministically (sorted keys, repr floats)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bundle, fh, sort_keys=True, indent=2)
        fh.write("\n")
