"""Command-line interface: subcommands, exit codes, config precedence."""

import json
from pathlib import Path

import pytest

from driverid import models, pipeline
from driverid.cli import main

from conftest import write_trip_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def prepared(tmp_path, trip_csv, capsys):
    out = str(tmp_path / "windows.csv")
    code = main(["prepare", "--input", trip_csv, "--features", "rank:3",
                 "--window", "30", "--stride", "10", "--out", out])
    capsys.readouterr()
    assert code == 0
    return out


# -- decode ---------------------------------------------------------------

def test_decode_text(capsys):
    code, out, err = run(capsys, "decode", "--service", "01", "--pid", "0C",
                         "--bytes", "1AF8")
    assert code == 0
    assert "1726" in out and "rpm" in out


def test_decode_json(capsys):
    code, out, _ = run(capsys, "decode", "--service", "01", "--pid", "0D",
                       "--bytes", "4B", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 75.0
    assert payload["unit"] == "km/h"


def test_decode_unknown_pid_is_data_error(capsys):
    code, _, err = run(capsys, "decode", "--service", "01", "--pid", "EE",
                       "--bytes", "00")
    assert code == 2
    assert "UnknownPid" in err


def test_decode_bad_hex_is_usage_error(capsys):
    code, _, err = run(capsys, "decode", "--service", "01", "--pid", "0C",
                       "--bytes", "xyz")
    assert code == 1


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decode", "--service", "01"])
    assert exc.value.code == 1


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 1


# -- ingest ---------------------------------------------------------------

def test_ingest_summary(capsys, trip_csv):
    code, out, _ = run(capsys, "ingest", "--input", trip_csv)
    assert code == 0
    assert "records: 360" in out


def test_ingest_json_with_keep(capsys, trip_csv):
    code, out, _ = run(capsys, "ingest", "--input", trip_csv, "--keep", "A,C",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n_records"] == 240
    assert payload["label_alphabet"] == ["A", "C"]


def test_ingest_missing_file_is_data_error(capsys, tmp_path):
    code, _, err = run(capsys, "ingest", "--input", str(tmp_path / "nope.csv"))
    assert code == 2


# -- prepare ---------------------------------------------------------------

def test_prepare_writes_matrix_and_sidecar(tmp_path, trip_csv, capsys):
    out = str(tmp_path / "w.csv")
    code, stdout, _ = run(capsys, "prepare", "--input", trip_csv,
                          "--features", "rank:2", "--window", "20",
                          "--stride", "20", "--out", out, "--format", "json")
    assert code == 0
    sidecar = json.loads(Path(out + ".json").read_text(encoding="utf-8"))
    assert sidecar["windows"]["count"] == 18  # 120 rows per driver / 20
    assert sidecar["windows"]["dropped_mixed_label"] == 0
    assert len(sidecar["selection"]["kept"]) == 2
    with open(out) as fh:
        header = fh.readline().strip().split(",")
    assert header[-1] == "Class"
    assert any(name.endswith("_mean") for name in header)


def test_prepare_requires_out(capsys, trip_csv):
    code, _, err = run(capsys, "prepare", "--input", trip_csv)
    assert code == 1
    assert "--out" in err


def test_prepare_rejects_bad_feature_spec(capsys, trip_csv, tmp_path):
    code, _, err = run(capsys, "prepare", "--input", trip_csv,
                       "--features", "pca:3", "--out", str(tmp_path / "w.csv"))
    assert code == 1


# -- train -------------------------------------------------------------------

def test_train_writes_model(tmp_path, prepared, capsys):
    model_path = str(tmp_path / "m.json")
    code, out, _ = run(capsys, "train", "--input", prepared, "--kind", "knn",
                       "--k", "3", "--out", model_path, "--format", "json")
    assert code == 0
    saved = json.loads(Path(model_path).read_text(encoding="utf-8"))
    assert saved["kind"] == "knn"
    assert saved["config"]["k"] == 3


def test_train_unknown_kind(capsys, prepared, tmp_path):
    code, _, err = run(capsys, "train", "--input", prepared, "--kind", "nope",
                       "--out", str(tmp_path / "m.json"))
    assert code == 1


# -- evaluate / compare ---------------------------------------------------------

def test_evaluate_single_kind_report(tmp_path, prepared, capsys):
    report_path = str(tmp_path / "rep.json")
    code, out, _ = run(capsys, "evaluate", "--input", prepared, "--kind", "knn",
                       "--folds", "5", "--report", report_path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["knn"]["accuracy"] > 90.0
    on_disk = json.loads(Path(report_path).read_text(encoding="utf-8"))
    assert on_disk["results"]["knn"]["metadata"]["plan"]["folds"] == 5


def test_evaluate_text_ranking(prepared, capsys):
    code, out, _ = run(capsys, "evaluate", "--input", prepared, "--kind", "zeror",
                       "--folds", "3")
    assert code == 0
    assert "zeror" in out


def test_evaluate_rejects_bad_split(prepared, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--input", prepared, "--kind", "knn", "--split", "holdout"])
    assert exc.value.code == 1


@pytest.mark.parametrize("kind, config", [
    ("logreg", {"max_epochs": 0}),
    ("logreg", {"learning_rate": 0.5}),
    ("vote", {"members": [["logreg", {"bogus": 1}]]}),
    ("reptree", {"seed": -1}),
    ("svm", {"seed": -1}),
    ("knn", {"k": 1.5}),
    ("adaboost", {"rounds": True}),
    ("svm", {"epochs": 2.5}),
    ("logreg", {"max_epochs": 2.5}),
    ("reptree", {"max_depth": 1.5}),
])
def test_evaluate_bad_model_config_is_data_error(prepared, capsys, kind, config):
    code, _, err = run(capsys, "evaluate", "--input", prepared, "--kind", kind,
                       "--folds", "3", "--model-config", json.dumps(config))
    assert code == 2
    assert "DriverIdError" in err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_evaluate_negative_seed_is_data_error(prepared, tmp_path, capsys, source):
    if source == "flag":
        argv = ["--seed", "-1"]
    else:
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": -1}))
        argv = ["--config", str(path)]
    code, _, err = run(capsys, "evaluate", "--input", prepared, "--kind", "zeror",
                       "--folds", "3", *argv)
    assert code == 2
    assert "seed must be an integer >= 0" in err


@pytest.mark.parametrize("raw", ["not json", "[1]"])
def test_evaluate_unparsable_model_config_is_usage_error(prepared, capsys, raw):
    code, _, err = run(capsys, "evaluate", "--input", prepared, "--kind", "knn",
                       "--folds", "3", "--model-config", raw)
    assert code == 1
    assert "--model-config" in err


@pytest.mark.parametrize("kind_flags", [[], ["--kind", "all"]])
@pytest.mark.parametrize("setting", [["--model-config", '{"k": 3}'], ["--k", "3"]])
def test_model_settings_need_a_single_kind(prepared, capsys, kind_flags, setting):
    code, _, err = run(capsys, "evaluate", "--input", prepared, *kind_flags,
                       "--folds", "3", *setting)
    assert code == 1
    assert "single --kind" in err


def test_compare_ranks_reports_written_by_evaluate(tmp_path, prepared, capsys):
    # compare consumes evaluate's own --report files directly
    paths = []
    for kind in ("zeror", "knn"):
        rpt = str(tmp_path / f"{kind}.json")
        code = main(["evaluate", "--input", prepared, "--kind", kind,
                     "--folds", "3", "--report", rpt])
        capsys.readouterr()
        assert code == 0
        paths.append(rpt)
    code, out, _ = run(capsys, "compare", *paths, "--format", "json")
    assert code == 0
    table = json.loads(out)
    assert table["ranking"][0]["kind"] == "knn"
    assert table["ranking"][0]["better_than_baseline"] is True


def test_compare_accepts_bare_per_model_reports(tmp_path, prepared, capsys):
    rpt = str(tmp_path / "both.json")
    code = main(["evaluate", "--input", prepared, "--kind", "all",
                 "--folds", "3", "--report", rpt])
    capsys.readouterr()
    assert code == 0
    results = json.loads(Path(rpt).read_text(encoding="utf-8"))["results"]
    flats = []
    for kind in ("zeror", "reptree"):
        flat = str(tmp_path / f"{kind}_flat.json")
        Path(flat).write_text(json.dumps(results[kind]), encoding="utf-8")
        flats.append(flat)
    code, out, _ = run(capsys, "compare", *flats, "--format", "json")
    assert code == 0
    assert json.loads(out)["baseline"]["kind"] == "zeror"


def test_compare_rejects_non_report_file(tmp_path, capsys):
    bad = str(tmp_path / "bad.json")
    Path(bad).write_text(json.dumps({"nope": 1}), encoding="utf-8")
    code, _, err = run(capsys, "compare", bad)
    assert code == 2
    assert "not an evaluation report" in err


def test_compare_without_baseline_is_data_error(tmp_path, prepared, capsys):
    rpt = str(tmp_path / "knn.json")
    code = main(["evaluate", "--input", prepared, "--kind", "knn", "--folds", "3",
                 "--report", rpt])
    capsys.readouterr()
    flat = str(tmp_path / "flat.json")
    knn = json.loads(Path(rpt).read_text(encoding="utf-8"))["results"]["knn"]
    Path(flat).write_text(json.dumps(knn), encoding="utf-8")
    code, _, err = run(capsys, "compare", flat)
    assert code == 2
    assert "NoBaselineDesignated" in err


# -- repro -----------------------------------------------------------------------

def test_repro_missing_dataset_names_the_path(capsys, tmp_path):
    absent = str(tmp_path / "absent.csv")
    code, _, err = run(capsys, "repro", "table6", "--input", absent)
    assert code == 2
    assert "absent.csv" in err


def test_repro_rejects_unknown_preset(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["repro", "table9"])
    assert exc.value.code == 1


def test_repro_preset_is_positional(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["repro", "--preset", "table6"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ["ingest"],
    ["prepare", "--out", "unused.csv"],
    ["evaluate"],
    ["train", "--kind", "knn", "--out", "unused.json"],
])
def test_missing_input_is_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "--input" in err


# -- config file ------------------------------------------------------------------

def test_config_file_supplies_defaults(tmp_path, trip_csv, capsys):
    cfg = str(tmp_path / "cfg.json")
    Path(cfg).write_text(json.dumps({"input": trip_csv, "keep": "A,B"}), encoding="utf-8")
    code, out, _ = run(capsys, "ingest", "--config", cfg, "--format", "json")
    assert code == 0
    assert json.loads(out)["n_records"] == 240


def test_flags_override_config_file(tmp_path, trip_csv, capsys):
    cfg = str(tmp_path / "cfg.json")
    Path(cfg).write_text(json.dumps({"input": trip_csv, "keep": "A,B"}), encoding="utf-8")
    code, out, _ = run(capsys, "ingest", "--config", cfg, "--keep", "A",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["n_records"] == 120


def test_dashed_config_keys_are_normalized(tmp_path, trip_csv, capsys):
    cfg = str(tmp_path / "cfg.json")
    Path(cfg).write_text(json.dumps({"input": trip_csv, "label-column": "Class"}), encoding="utf-8")
    code, out, _ = run(capsys, "ingest", "--config", cfg, "--format", "json")
    assert code == 0
    assert json.loads(out)["n_records"] == 360


def test_cli_report_bytes_are_deterministic(tmp_path, prepared, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for path in (a, b):
        code = main(["evaluate", "--input", prepared, "--kind", "reptree",
                     "--folds", "5", "--seed", "3", "--report", path])
        capsys.readouterr()
        assert code == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


@pytest.mark.parametrize("command, text, status, named", [
    ("ingest", "{not json", 2, "cfg.json"),
    ("ingest", "[1, 2]", 2, "cfg.json"),
    ("ingest", '{"keep": ["A", "B"]}', 1, "keep"),
    ("prepare", '{"window": 30.5}', 1, "window"),
    ("prepare", '{"features": "rank:0"}', 1, "features"),
    ("evaluate", '{"folds": "ten"}', 1, "folds"),
    ("evaluate", '{"folds": true}', 1, "folds"),
    ("evaluate", '{"stratified": "false"}', 1, "stratified"),
    ("evaluate", '{"split": "holdout"}', 1, "split"),
    ("evaluate", '{"kind": "nope"}', 1, "kind"),
    ("evaluate", '{"model_config": [1]}', 1, "model_config"),
])
def test_bad_config_file_is_a_typed_error(tmp_path, trip_csv, prepared, capsys,
                                          command, text, status, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    extra = {
        "ingest": ["--input", trip_csv],
        "prepare": ["--input", trip_csv, "--out", str(tmp_path / "w.csv")],
        "evaluate": ["--input", prepared],
    }[command]
    code, _, err = run(capsys, command, "--config", str(cfg), *extra)
    assert code == status
    assert named in err
    assert "internal error" not in err


@pytest.mark.parametrize("command, key", [
    ("evaluate", "fold"),
    ("evaluate", "kinds"),
    ("ingest", "keep_labels"),
])
def test_unknown_config_key_is_usage_error(tmp_path, trip_csv, prepared, capsys,
                                           command, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 4}))
    extra = {"ingest": ["--input", trip_csv], "evaluate": ["--input", prepared, "--kind", "zeror"]}
    code, _, err = run(capsys, command, "--config", str(cfg), *extra[command])
    assert code == 1
    assert key in err and "cfg.json" in err


def test_config_keys_of_other_subcommands_are_allowed(tmp_path, prepared, capsys):
    # one shared file: "window" and "stats" are prepare's, "service" is decode's
    cfg = str(tmp_path / "cfg.json")
    settings = {"window": 30, "stats": "mean", "service": "01", "folds": 4}
    Path(cfg).write_text(json.dumps(settings), encoding="utf-8")
    code, out, _ = run(capsys, "evaluate", "--config", cfg, "--input", prepared,
                       "--kind", "zeror", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["zeror"]["metadata"]["plan"]["folds"] == 4


def test_config_file_sets_evaluation_plan(tmp_path, prepared, capsys):
    cfg = str(tmp_path / "cfg.json")
    settings = {"stratified": False, "folds": 4, "split": "blocked"}
    Path(cfg).write_text(json.dumps(settings), encoding="utf-8")
    code, out, _ = run(capsys, "evaluate", "--config", cfg, "--input", prepared,
                       "--kind", "zeror", "--format", "json")
    assert code == 0
    plan = json.loads(out)["results"]["zeror"]["metadata"]["plan"]
    assert plan == {"folds": 4, "stratified": False, "seed": 1, "split_mode": "blocked-time"}


# -- the CLI and the pipeline compute the same numbers ------------------------------

def test_cli_prepare_and_evaluate_match_the_pipeline(tmp_path, trip_csv, capsys):
    matrix_csv, report = str(tmp_path / "m.csv"), str(tmp_path / "r.json")
    assert main(["prepare", "--input", trip_csv, "--features", "rank:3", "--window", "30",
                 "--stride", "10", "--out", matrix_csv]) == 0
    assert main(["evaluate", "--input", matrix_csv, "--kind", "all", "--folds", "3",
                 "--seed", "2", "--report", report]) == 0
    capsys.readouterr()
    config = pipeline.RunConfig(
        input=trip_csv, feature_mode="correlation-ranked", feature_count=3,
        window_length=30, window_stride=10, kinds=tuple(models.KINDS), folds=3, seed=2,
    )
    _, _, matrix, _ = pipeline.prepare_matrix(config)
    direct_csv = str(tmp_path / "direct.csv")
    matrix.to_csv(direct_csv)
    assert Path(matrix_csv).read_bytes() == Path(direct_csv).read_bytes()
    bundle = json.loads(json.dumps(pipeline.run_pipeline(config)))
    from_cli = json.loads(Path(report).read_text(encoding="utf-8"))
    assert from_cli["results"] == bundle["results"]
    assert from_cli["comparison"] == bundle["comparison"]
