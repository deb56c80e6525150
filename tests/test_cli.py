"""Command-line interface: subcommands, exit codes, config precedence."""

import json
from pathlib import Path

import pytest

from driverid import evaluate, models, pipeline
from driverid.cli import main
from driverid.errors import DriverIdError

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


@pytest.mark.parametrize("header, row, repeated", [
    ("Speed,Speed,Class", "1.0,2.0,A", "Speed"),
    ("Class,Speed,Class", "A,1.0,A", "Class"),
])
def test_prepare_rejects_a_repeated_header_name(tmp_path, capsys, header, row, repeated):
    log, out = tmp_path / "log.csv", tmp_path / "w.csv"
    log.write_text(f"{header}\n" + f"{row}\n" * 4, encoding="utf-8")
    code, _, err = run(capsys, "prepare", "--input", str(log), "--features", "rank:1",
                       "--window", "2", "--out", str(out))
    assert code == 2
    assert err.startswith("driverid prepare: DriverIdError: ")
    assert str(log) in err and repr(repeated) in err
    assert not out.exists()


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
    for split in ("holdout", "blocked"):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--input", prepared, "--kind", "knn", "--split", split])
        assert exc.value.code == 1


@pytest.mark.parametrize("kind, config", [
    ("logreg", {"max_epochs": 0}),
    ("logreg", {"learning_rate": 0.5}),
    ("zeror", {"seed": 1}),
    ("reptree", {"seed": -1}),
    ("svm", {"seed": -1}),
    ("knn", {"k": 1.5}),
    ("adaboost", {"rounds": True}),
    ("svm", {"epochs": 2.5}),
    ("logreg", {"max_epochs": 2.5}),
    ("reptree", {"max_depth": 1.5}),
    # json.dumps writes these as NaN and Infinity, which json.loads reads back.
    ("svm", {"lam": float("nan")}),
    ("naive_bayes", {"var_floor": float("inf")}),
    ("logreg", {"tol": float("inf")}),
    ("logreg", {"tol": True}),
])
def test_evaluate_bad_model_config_is_data_error(prepared, capsys, kind, config):
    code, _, err = run(capsys, "evaluate", "--input", prepared, "--kind", kind,
                       "--folds", "3", "--model-config", json.dumps(config))
    assert code == 2
    # An option the kind does not take is a DriverIdError; a bad value of
    # one it takes is its InvalidOption subclass.
    unknown_option = "learning_rate" in config or kind == "zeror"
    assert ("DriverIdError" if unknown_option else "InvalidOption") in err


def test_evaluate_vote_is_an_unknown_kind(prepared, capsys):
    code, _, err = run(capsys, "evaluate", "--input", prepared, "--kind", "vote", "--folds", "3")
    assert code == 1
    assert "unknown kind 'vote'" in err


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
    for doc in results.values():  # each report rebuilds from its counts
        assert evaluate.MetricsReport.from_dict(doc).to_dict() == doc
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


def _two_fold_report(kind, *fold_counts) -> dict:
    folds = tuple(evaluate.ConfusionMatrix(("A", "B"), counts) for counts in fold_counts)
    pooled = evaluate.ConfusionMatrix(("A", "B"), sum(f.counts for f in folds))
    return evaluate.metrics(pooled, fold_matrices=folds, metadata={"kind": kind}).to_dict()


def _zeror_and_knn_reports(knn_edits) -> dict:
    """A composite document of a zeror and a knn report, both of two folds:
    zeror pools [[3, 0], [1, 0]] (75 %), knn [[3, 0], [0, 1]] (100 %).
    ``knn_edits`` maps a knn field to its new value, or to a function of
    its old one."""
    zeror = _two_fold_report("zeror", [[1, 0], [0, 0]], [[2, 0], [1, 0]])
    knn = _two_fold_report("knn", [[1, 0], [0, 0]], [[2, 0], [0, 1]])
    for key, new in knn_edits.items():
        knn[key] = new(knn[key]) if callable(new) else new
    return {"results": {"zeror": zeror, "knn": knn}}


@pytest.mark.parametrize("knn_edits", [
    pytest.param({"accuracy": float("nan")}, id="accuracy-nan"),
    pytest.param({"accuracy": "12.5"}, id="accuracy-string"),
    pytest.param({"accuracy": True}, id="accuracy-bool"),
    pytest.param({"accuracy": 1e9}, id="accuracy-1e9"),
    pytest.param({"accuracy": -5}, id="accuracy-negative"),
    pytest.param({"accuracy": 75.0}, id="accuracy-not-the-counts"),
    pytest.param({"classes": ["A"], "confusion": [[-1]]}, id="negative-count"),
    pytest.param({"classes": ["A"], "confusion": [[1.5]]}, id="fractional-count"),
    pytest.param({"confusion": [[3, 0, 0], [0, 1, 0]]}, id="non-square-counts"),
    pytest.param({"classes": ["A", "A"]}, id="repeated-class"),
    pytest.param({"per_class": lambda rows: [{**rows[0], "precision": 99.0}, rows[1]]},
                 id="edited-per-class"),
    pytest.param({"per_class": lambda rows: [rows[0], {**rows[1], "undefined": ["f1"]}]},
                 id="edited-undefined"),
    pytest.param({"averaged_2x2": lambda avg: [avg[0], [avg[1][0], avg[1][1] + 0.5]]},
                 id="edited-averaged-2x2"),
    # Each fold accuracy follows from that fold's counts, which sum to the
    # pooled counts; a plan's fold count is the number of fold matrices.
    pytest.param({"fold_accuracies": [100.0, 101.0]}, id="fold-accuracy-over-100"),
    pytest.param({"fold_accuracies": [float("nan"), 100.0]}, id="fold-accuracy-nan"),
    pytest.param({"fold_accuracies": [50.0, 60.0]}, id="accuracy-above-every-fold"),
    # A pooled 100 % means every fold scored 100 %.
    pytest.param({"fold_accuracies": [100.0, 50.0]}, id="pooled-100-but-a-fold-at-50"),
    pytest.param({"fold_accuracies": [100.0, 100.0, 100.0],
                  "metadata": {"kind": "knn", "plan": {"folds": 2}}},
                 id="more-fold-accuracies-than-folds"),
    pytest.param({"fold_confusion": [[[1, 0], [0, 0]], [[1, 0], [0, 0]], [[1, 0], [0, 1]]],
                  "fold_accuracies": [100.0, 100.0, 100.0],
                  "metadata": {"kind": "knn", "plan": {"folds": 2}}},
                 id="more-fold-matrices-than-folds"),
    pytest.param({"metadata": {"kind": "knn", "plan": {"folds": 3}}},
                 id="fewer-fold-accuracies-than-folds"),
    pytest.param({"fold_accuracies": None, "metadata": {"kind": "knn", "plan": {"folds": 2}}},
                 id="folds-without-fold-accuracies"),
    pytest.param({"fold_accuracies": None, "fold_confusion": None,
                  "metadata": {"kind": "knn", "plan": {"folds": 2}}},
                 id="plan-folds-without-fold-counts"),
    pytest.param({"fold_confusion": None}, id="fold-accuracies-without-fold-counts"),
    pytest.param({"fold_confusion": [[[1, 0], [0, 0]], [[2, 0], [0, 0]]]},
                 id="fold-counts-not-summing-to-confusion"),
    pytest.param({"fold_confusion": [[[3, 0], [0, 1]], [[0, 0], [0, 0]]],
                  "fold_accuracies": [100.0, 0.0]}, id="fold-with-no-instances"),
    pytest.param({"fold_confusion": [[[1]], [[2, 0], [0, 1]]]}, id="fold-of-one-class"),
])
def test_compare_rebuilds_each_report_from_its_counts(tmp_path, capsys, knn_edits):
    path = tmp_path / "reports.json"
    for edits, status in (({}, 0), (knn_edits, 2)):
        path.write_text(json.dumps(_zeror_and_knn_reports(edits)), encoding="utf-8")
        code, _, err = run(capsys, "compare", str(path))
        assert code == status, err
    # The report's own error keeps its type and gains the path, once.
    with pytest.raises(DriverIdError) as exc:
        evaluate.MetricsReport.from_dict(_zeror_and_knn_reports(knn_edits)["results"]["knn"])
    what = f"{path} is not an evaluation report"
    assert err == f"driverid compare: {exc.type.__name__}: {what}: {exc.value}\n"


@pytest.mark.parametrize("fold_keys", [{"fold_confusion": None, "fold_accuracies": None}, {}])
def test_compare_loads_a_report_with_no_fold_data(tmp_path, capsys, fold_keys):
    # Both fold keys null, or both absent, as in a report of one confusion matrix.
    doc = _zeror_and_knn_reports({})
    for report in doc["results"].values():
        del report["fold_confusion"], report["fold_accuracies"]
        report.update(fold_keys)
    path = tmp_path / "reports.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "compare", str(path), "--format", "json")
    assert code == 0, err
    assert json.loads(out)["baseline"]["accuracy"] == 75.0


def _report_with_a_short_averaged_2x2() -> bytes:
    cm = evaluate.confusion_from_predictions([0, 1], [0, 1], ["A", "B"])
    report = {**evaluate.metrics(cm).to_dict(), "averaged_2x2": [[1]]}
    return json.dumps(report).encode()


_UNDECODABLE_LOG = b"Speed,Class\n1.0,A\n2.0,\xff\n"


@pytest.mark.parametrize("command, content, error", [
    pytest.param("ingest", _UNDECODABLE_LOG, "DriverIdError", id="ingest-undecodable"),
    pytest.param("train", _UNDECODABLE_LOG, "DriverIdError", id="train-undecodable"),
    pytest.param("ingest", b"Speed,Class\n1.0," + b"A" * 200_000 + b"\n", "DriverIdError",
                 id="ingest-field-over-the-csv-limit"),
    pytest.param("ingest", b"Speed,Class\n1.0,A\n2.0\n", "RaggedRow", id="ingest-ragged-row"),
    pytest.param("ingest", b"Speed,Class\n1.0,A\nx,B\n", "NonNumericCell",
                 id="ingest-non-numeric-cell"),
    pytest.param("ingest", b"Speed,Class\n", "EmptyDataset", id="ingest-header-only"),
    pytest.param("compare", b"not json", "DriverIdError", id="compare-not-json"),
    pytest.param("compare", b"\xff\xfe", "DriverIdError", id="compare-undecodable"),
    pytest.param("compare", _report_with_a_short_averaged_2x2(), "DriverIdError",
                 id="compare-short-averaged-2x2"),
    pytest.param("compare", b"[" * 100_000, "DriverIdError",
                 id="compare-nested-past-the-recursion-limit"),
])
def test_malformed_input_file_is_a_data_error_naming_it(tmp_path, capsys, command, content, error):
    path = tmp_path / "input.data"
    path.write_bytes(content)
    argv = {
        "ingest": ["ingest", "--input", str(path)],
        "train": ["train", "--input", str(path), "--kind", "zeror",
                  "--out", str(tmp_path / "model.json")],
        "compare": ["compare", str(path)],
    }[command]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"driverid {command}: {error}: ") and err.count(str(path)) == 1


def test_input_path_with_a_null_byte_is_a_data_error_naming_it(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"input": "a\u0000b.csv"}), encoding="utf-8")
    code, _, err = run(capsys, "ingest", "--config", str(config))
    assert code == 2
    assert err == "driverid ingest: DriverIdError: CSV a\x00b.csv: ValueError: embedded null byte\n"
    # a log that is not there stays an OSError, a file error
    config.write_text(json.dumps({"input": str(tmp_path / "missing.csv")}), encoding="utf-8")
    code, _, err = run(capsys, "ingest", "--config", str(config))
    assert code == 2 and err.startswith("driverid ingest: file error: ")


def test_config_nested_past_the_recursion_limit_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    code, _, err = run(capsys, "ingest", "--config", str(path))
    assert code == 2
    assert "DriverIdError: config file" in err and "RecursionError" in err


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
    ("evaluate", '{"split": "blocked"}', 1, "split"),
    ("evaluate", '{"kind": "nope"}', 1, "kind"),
    ("evaluate", '{"model_config": [1]}', 1, "model_config"),
    ("ingest", '{"format": "yaml"}', 1, "format"),
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
    ("evaluate", "service"),  # decode reads --service only as a flag
    ("ingest", "preset"),  # ... and repro its preset
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
    # one shared file: "window", "stats" and "sidecar" are prepare's
    cfg = str(tmp_path / "cfg.json")
    settings = {"window": 30, "stats": "mean", "sidecar": "w.json", "folds": 4}
    Path(cfg).write_text(json.dumps(settings), encoding="utf-8")
    code, out, _ = run(capsys, "evaluate", "--config", cfg, "--input", prepared,
                       "--kind", "zeror", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["zeror"]["metadata"]["plan"]["folds"] == 4


def test_config_file_sets_the_output_format(tmp_path, trip_csv, capsys):
    cfg = str(tmp_path / "cfg.json")
    Path(cfg).write_text(json.dumps({"input": trip_csv, "format": "json"}), encoding="utf-8")
    code, out, _ = run(capsys, "ingest", "--config", cfg)
    assert code == 0
    assert json.loads(out)["n_records"] == 360
    code, out, _ = run(capsys, "ingest", "--config", cfg, "--format", "text")
    assert code == 0
    assert out.startswith("records: 360\n")


def test_exclude_nothing_keeps_the_bookkeeping_columns(trip_csv, capsys):
    code, out, _ = run(capsys, "ingest", "--input", trip_csv, "--exclude", "", "--format", "json")
    assert code == 0
    assert json.loads(out)["columns"][-2:] == ["Time(s)", "PathOrder"]


@pytest.mark.parametrize("flag, message", [("--keep", "keep set"), ("--stats", "statistic")])
def test_an_empty_name_list_is_not_the_default(tmp_path, trip_csv, capsys, flag, message):
    code, _, err = run(capsys, "prepare", "--input", trip_csv, "--features", "rank:3",
                       "--window", "30", flag, " , ", "--out", str(tmp_path / "w.csv"))
    assert code == 2
    assert message in err


def test_config_file_sets_evaluation_plan(tmp_path, prepared, capsys):
    cfg = str(tmp_path / "cfg.json")
    settings = {"stratified": False, "folds": 4, "split": "random"}
    Path(cfg).write_text(json.dumps(settings), encoding="utf-8")
    code, out, _ = run(capsys, "evaluate", "--config", cfg, "--input", prepared,
                       "--kind", "zeror", "--format", "json")
    assert code == 0
    plan = json.loads(out)["results"]["zeror"]["metadata"]["plan"]
    assert plan == {"folds": 4, "stratified": False, "seed": 1, "split_mode": "random-window"}


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
