"""End-to-end pipeline runs on a surrogate of the ten-driver dataset.

The surrogate mimics the real export's shape — 51 channels with the
production spellings, bookkeeping columns, drivers A-J in contiguous
blocks — at a fraction of the row count, so the full preset path (load,
fixed-feature resolution, windowing, CV over every model kind) runs in
seconds without the real data.
"""

import json
import os

import numpy as np
import pytest

from driverid import pipeline
from driverid.cli import main
from driverid.errors import DriverIdError, InvalidOption
from driverid.evaluate import MetricsReport
from driverid.features import FeatureMatrix
from driverid.ingest import encode_labels

# production spellings of the fifteen benchmark channels
REAL_SPELLINGS = (
    "Long_Term_Fuel_Trim_Bank1",
    "Intake_air_pressure",
    "Accelerator_Pedal_value",
    "Fuel_consumption",
    "Maximum_indicated_engine_torque",
    "Engine_torque",
    "Calculated_LOAD_value",
    "Torque_of_friction",
    "Activation_of_Air_compressor",
    "Engine_coolant_temperature",
    "Transmission_oil_temperature",
    "Wheel_velocity_front_left-hand",
    "Wheel_velocity_front_right-hand",
    "Wheel_velocity_rear_left-hand",
    "Torque_converter_speed",
)


def write_surrogate(path, rows_per_driver=150, n_drivers=10, seed=21):
    rng = np.random.default_rng(seed)
    fillers = [f"Channel_{i:02d}" for i in range(51 - len(REAL_SPELLINGS))]
    channels = list(REAL_SPELLINGS) + fillers
    header = channels + ["Time(s)", "PathOrder", "Class"]
    drivers = [chr(ord("A") + i) for i in range(n_drivers)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        t = 0
        for di, driver in enumerate(drivers):
            # driver-specific offsets on the benchmark channels
            offsets = rng.normal(3.0 * di, 0.5, size=len(REAL_SPELLINGS))
            for _ in range(rows_per_driver):
                vals = np.concatenate([
                    offsets + rng.normal(0, 1, size=len(REAL_SPELLINGS)),
                    rng.normal(0, 1, size=len(fillers)),
                ])
                cells = [f"{v:.5f}" for v in vals] + [str(t), "1", driver]
                fh.write(",".join(cells) + "\n")
                t += 1
    return path


@pytest.fixture(scope="module")
def surrogate_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("surrogate") / "driving.csv"
    return write_surrogate(str(path))


def test_presets_pin_their_lineups():
    table6 = pipeline.preset_config("table6", "x.csv")
    assert table6.keep_labels == ("A", "D")
    assert "logreg" in table6.kinds
    table7 = pipeline.preset_config("table7", "x.csv")
    assert table7.keep_labels is None
    assert "logreg" not in table7.kinds
    assert table6.seed == table7.seed == 1
    with pytest.raises(DriverIdError):
        pipeline.preset_config("table9", "x.csv")


def test_preset_overrides_apply():
    config = pipeline.preset_config("table6", "x.csv", window_length=30, folds=5)
    assert config.window_length == 30
    assert config.folds == 5
    assert config.keep_labels == ("A", "D")


def test_default_dataset_path_env_override(monkeypatch):
    monkeypatch.delenv(pipeline.DATASET_ENV_VAR, raising=False)
    assert pipeline.default_dataset_path() == os.path.join("data", "driving_dataset.csv")
    monkeypatch.setenv(pipeline.DATASET_ENV_VAR, "/elsewhere/d.csv")
    assert pipeline.default_dataset_path() == "/elsewhere/d.csv"


def test_run_config_rejects_unknown_keys():
    with pytest.raises(DriverIdError):
        pipeline.RunConfig.from_dict({"input": "x.csv", "window": 60})


def test_fixed_features_resolve_against_production_spellings(surrogate_csv):
    config = pipeline.preset_config("table6", surrogate_csv, window_length=20, window_stride=10)
    ds, selection, matrix, n_dropped = pipeline.prepare_matrix(config)
    assert selection.kept == REAL_SPELLINGS
    assert matrix.n_features == 45  # 15 channels x mean/median/std
    assert set(matrix.labels) == {"A", "D"}
    assert n_dropped >= 0


def test_report_spec_lists_the_statistics_the_matrix_has(surrogate_csv):
    config = pipeline.preset_config(
        "table7", surrogate_csv, window_length=20, window_stride=10,
        statistics=("mean", "mean"), kinds=("zeror",),
    )
    windows = pipeline.run_pipeline(config)["windows"]
    assert windows["n_columns"] == 15
    assert windows["spec"] == {"length": 20, "stride": 10, "statistics": ["mean"]}


@pytest.mark.parametrize("kinds, model_configs, named", [
    (("zeror",), {"knn": {"k": 3}}, "knn"),
    (("zeror", "bogus"), {}, "bogus"),
])
def test_bad_kinds_or_model_configs_raise_before_any_fit(surrogate_csv, monkeypatch,
                                                         kinds, model_configs, named):
    fitted = []
    monkeypatch.setattr(pipeline.evaluate, "cross_validate",
                        lambda kind, *a, **kw: fitted.append(kind))
    with pytest.raises(DriverIdError, match=named):
        pipeline.run_pipeline(pipeline.preset_config(
            "table7", surrogate_csv, window_length=20, window_stride=10,
            kinds=kinds, model_configs=model_configs,
        ))
    assert fitted == []


@pytest.mark.parametrize("overrides, named", [
    ({"folds": 2.5}, "folds"),
    ({"seed": 1.5}, "seed"),
    ({"folds": True}, "folds"),
    ({"split_mode": "bogus"}, "split_mode"),
    ({"normalize": "bogus"}, "normalize"),
    ({"kinds": ("zeror", "bogus")}, "bogus"),
    ({"model_configs": {"logreg": {}}}, "logreg"),
    ({"model_configs": {"adaboost": {"rounds": 0}}}, "rounds"),
    ({"feature_mode": "bogus"}, "feature_mode"),
    ({"feature_mode": "correlation-ranked", "feature_count": 2.5}, "feature_count"),
    ({"feature_mode": "correlation-ranked", "feature_count": 0}, "feature_count"),
    ({"statistics": ("mean", "mode")}, "statistics"),
    ({"window_length": 60.5}, "window length"),
    ({"window_stride": True}, "stride"),
    ({"stratified": "no"}, "stratified"),
    ({"split_mode": True}, "split_mode"),
    ({"normalize": None}, "normalize"),
    ({"feature_mode": "Fixed-List"}, "feature_mode"),
    ({"statistics": ("mean", 1)}, "statistics"),
    ({"irrelevance_threshold": float("nan")}, "irrelevance_threshold"),
    ({"irrelevance_threshold": -0.1}, "irrelevance_threshold"),
    ({"irrelevance_threshold": True}, "irrelevance_threshold"),
    ({"correlation_threshold": float("inf")}, "correlation_threshold"),
    ({"correlation_threshold": -float("inf")}, "correlation_threshold"),
    ({"correlation_threshold": "x"}, "correlation_threshold"),
    ({"exclude_columns": "Time(s)"}, "exclude_columns"),
    ({"keep_labels": "AD"}, "keep_labels"),
    ({"feature_list": "Engine torque"}, "feature_list"),
    ({"statistics": "mean"}, "statistics"),
    ({"kinds": "zeror"}, "kinds"),
    ({"kinds": None}, "kinds"),
    ({"statistics": 5}, "statistics"),
    ({"keep_labels": ("A", 4)}, "keep_labels"),
    ({"out_dir": 5}, "out_dir"),
    ({"label_column": None}, "label_column"),
])
def test_bad_model_or_cv_options_raise_before_the_data_half(surrogate_csv, monkeypatch,
                                                            overrides, named):
    calls = []
    prepare_matrix = pipeline.prepare_matrix

    def counted(config):
        calls.append(config)
        return prepare_matrix(config)

    monkeypatch.setattr(pipeline, "prepare_matrix", counted)
    with pytest.raises(InvalidOption, match=named):
        pipeline.run_pipeline(pipeline.preset_config(
            "table7", surrogate_csv, **{"window_length": 20, "window_stride": 10, **overrides}
        ))
    assert calls == []


def test_run_config_input_must_be_a_string():
    with pytest.raises(InvalidOption, match="input"):
        pipeline.RunConfig(input=5)


def test_prepare_matrix_takes_a_whole_feature_count(surrogate_csv):
    # The count is checked when the config is built, and again by select_features.
    with pytest.raises(DriverIdError, match="feature_count"):
        pipeline.prepare_matrix(pipeline.preset_config(
            "table7", surrogate_csv, feature_mode="correlation-ranked", feature_count=2.5,
        ))


@pytest.mark.parametrize("normalize, fits", [("train", 4), ("all", 1), ("none", 0)])
def test_folds_and_normalizers_are_built_once_per_run(monkeypatch, normalize, fits):
    calls = {"fold_assignments": 0, "fit_normalizer": 0}

    def counted(name):
        original = getattr(pipeline.evaluate, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(pipeline.evaluate, name, counted(name))
    rng = np.random.default_rng(0)
    matrix = FeatureMatrix(("x", "y"), rng.normal(size=(40, 2)), *encode_labels(["A", "B"] * 20))
    config = pipeline.RunConfig(input="unused.csv", kinds=("zeror", "naive_bayes", "knn"),
                                folds=4, normalize=normalize)
    results, _ = pipeline.cross_validate_kinds(config, matrix)
    assert list(results) == ["zeror", "naive_bayes", "knn"]
    assert calls == {"fold_assignments": 1, "fit_normalizer": fits}


def test_table6_preset_end_to_end_on_surrogate(surrogate_csv, tmp_path):
    config = pipeline.preset_config(
        "table6", surrogate_csv,
        window_length=20, window_stride=10, out_dir=str(tmp_path / "out"),
    )
    bundle = pipeline.run_pipeline(config)
    assert set(bundle["results"]) == set(config.kinds)
    assert bundle["comparison"] is not None
    # the surrogate's 28 windows are far below the scale the presets target,
    # which starves the step-count-hungry SVM; assert the models that are
    # robust at toy scale and only require the rest to be ranked
    ranked = {row["kind"]: row for row in bundle["comparison"]["ranking"]}
    assert set(ranked) == set(config.kinds)
    for kind in ("knn", "reptree", "naive_bayes", "logreg"):
        assert ranked[kind]["better_than_baseline"], ranked[kind]
    on_disk = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert on_disk["windows"]["count"] == bundle["windows"]["count"]
    for doc in on_disk["results"].values():  # each report rebuilds from its counts
        assert MetricsReport.from_dict(doc).to_dict() == doc


def test_table7_preset_end_to_end_on_surrogate(surrogate_csv):
    config = pipeline.preset_config("table7", surrogate_csv, window_length=20, window_stride=10)
    bundle = pipeline.run_pipeline(config)
    assert len(bundle["dataset"]["label_alphabet"]) == 10
    zeror = bundle["results"]["zeror"]["accuracy"]
    majority = 100.0 * max(bundle["windows"]["class_distribution"].values())
    assert zeror == majority
    assert bundle["results"]["knn"]["accuracy"] > zeror


def test_every_written_report_loads_through_compare(surrogate_csv, tmp_path, capsys):
    # Both presets' report.json, and an evaluate --report file on a prepared
    # matrix: each kind holds one matrix per planned fold, and they sum to
    # its pooled counts.
    paths = []
    for preset in ("table6", "table7"):
        out_dir = tmp_path / preset
        pipeline.run_pipeline(pipeline.preset_config(
            preset, surrogate_csv, window_length=20, window_stride=10, out_dir=str(out_dir)))
        paths.append(out_dir / "report.json")
    matrix, evaluated = tmp_path / "windows.csv", tmp_path / "evaluate.json"
    assert main(["prepare", "--input", surrogate_csv, "--features", "fixed15", "--window", "20",
                 "--stride", "10", "--out", str(matrix)]) == 0
    assert main(["evaluate", "--input", str(matrix), "--folds", "3",
                 "--report", str(evaluated)]) == 0
    paths.append(evaluated)
    for path in paths:
        capsys.readouterr()
        assert main(["compare", str(path)]) == 0, capsys.readouterr().err
        for doc in json.loads(path.read_text(encoding="utf-8"))["results"].values():
            folds = np.asarray(doc["fold_confusion"])
            assert len(folds) == doc["metadata"]["plan"]["folds"]
            assert folds.sum(axis=0).tolist() == doc["confusion"]


def test_repro_subcommand_runs_the_surrogate(surrogate_csv, tmp_path, capsys):
    code = main([
        "repro", "table6", "--input", surrogate_csv,
        "--window", "20", "--stride", "10",
        "--out-dir", str(tmp_path / "run"), "--format", "json",
    ])
    out = capsys.readouterr().out
    assert code == 0
    bundle = json.loads(out)
    assert bundle["comparison"]["baseline"]["kind"] == "zeror"
    assert (tmp_path / "run" / "report.json").exists()
