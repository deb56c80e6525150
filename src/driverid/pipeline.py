"""End-to-end runs: ingest → select → window → cross-validate → report.

A :class:`RunConfig` captures every knob of a run and is embedded verbatim
in the emitted report, so re-running a report's config reproduces it
bit-for-bit (reports carry no timestamps, and all randomness is seeded).
A RunConfig checks every option that needs no data when it is built, so a
path that is not a string, or a bad kind, model config, selection, window,
normalize policy or cross-validation plan raises InvalidOption before any
file is read.

Two presets reproduce the headline benchmark setups: ``table6`` (binary
driver A vs D) and ``table7`` (all ten drivers).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

from . import evaluate, ingest, models
from .errors import DriverIdError, InvalidOption, name_list, one_of
from .features import WindowSpec, check_selection, extract_windows, select_features

#: Environment variable consulted for the benchmark dataset location.
DATASET_ENV_VAR = "OCSLAB_DRIVING_CSV"
#: Fallback dataset path relative to the working directory.
DATASET_DEFAULT_PATH = os.path.join("data", "driving_dataset.csv")
#: RunConfig fields that hold a list of names (None allowed where the default is None).
NAME_LISTS = ("exclude_columns", "keep_labels", "feature_list", "statistics", "kinds")


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

    def __post_init__(self) -> None:
        for key in ("input", "label_column", "out_dir"):
            value = getattr(self, key)
            if not (isinstance(value, str) or value is None and key == "out_dir"):
                raise InvalidOption(f"{key} must be a string, got {value!r}")
        for key in NAME_LISTS:
            names = getattr(self, key)
            if not (names is None and self.__dataclass_fields__[key].default is None):
                name_list(key, names)
        if not isinstance(self.model_configs, dict):
            raise InvalidOption(f"model_configs must map kinds to configs: {self.model_configs!r}")
        stray = sorted(set(self.model_configs) - set(self.kinds))
        if stray:
            raise InvalidOption(f"model_configs for kinds that do not run: {stray}")
        for kind in self.kinds:
            models.make(kind, self.model_configs.get(kind))
        check_selection(self.feature_mode, self.feature_count,
                        self.irrelevance_threshold, self.correlation_threshold)
        self.window_spec()
        one_of("normalize", self.normalize, evaluate.NORMALIZE_POLICIES)
        self.cv_plan()

    def window_spec(self) -> WindowSpec:
        return WindowSpec(self.window_length, self.window_stride, self.statistics)

    def cv_plan(self) -> evaluate.CvPlan:
        return evaluate.CvPlan(self.folds, self.stratified, self.seed, self.split_mode)

    def to_dict(self) -> dict:
        d = asdict(self)
        for key, value in d.items():
            if isinstance(value, tuple):
                d[key] = list(value)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise DriverIdError(f"a run config must be a JSON object, got {d!r}")
        kwargs = dict(d)
        for key in NAME_LISTS:
            if isinstance(kwargs.get(key), list):
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
    one_of("preset", name, tuple(PRESETS))
    return RunConfig(input=input_path, **{**PRESETS[name], **overrides})


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


def cross_validate_kinds(config: RunConfig, matrix) -> tuple[dict, dict | None]:
    """Cross-validate each of ``config.kinds`` on ``matrix``, in that order.

    The folds and their normalizers are built once and shared by every kind.
    Returns ``({kind: MetricsReport}, comparison)``; ``comparison`` ranks them
    against ZeroR, or is None without a ``zeror`` run.
    """
    folds = evaluate.Folds.build(matrix, config.cv_plan(), config.normalize)
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
    with ingest._text_stream(path, "w") as fh:
        json.dump(bundle, fh, sort_keys=True, indent=2)
        fh.write("\n")
