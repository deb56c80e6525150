"""Command-line interface.

Subcommands: ``decode`` (OBD-II payloads), ``ingest`` (load + summarize trip
logs), ``prepare`` (feature selection + windowing to CSV), ``train`` (fit
one model), ``evaluate`` (cross-validate models on a prepared matrix),
``compare`` (rank evaluation reports against the ZeroR baseline), and
``repro`` (run a named benchmark preset end to end).

Exit codes: 0 success, 1 usage error, 2 data error (bad input files,
unknown PIDs, malformed datasets), 3 internal error.  ``--config FILE``
supplies flat JSON defaults; explicit flags win over the file, which wins
over built-in defaults.  Every subcommand accepts ``--format json``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import evaluate, features, ingest, models, obd, pipeline
from .errors import DriverIdError
from .features import FeatureMatrix, WindowSpec

_SPLIT_FLAGS = {"random": "random-window", "blocked": "blocked-time"}


class _UsageError(Exception):
    """Raised for bad invocations discovered after argparse (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this CLI reserves 2 for
    data errors, so usage problems are rerouted to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _Settings:
    """Flag > config-file > default resolution for one invocation."""

    def __init__(self, args: argparse.Namespace):
        self._args = vars(args)
        self._file = {}
        config_path = self._args.get("config")
        if config_path:
            with open(config_path, encoding="utf-8") as fh:
                loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise DriverIdError(f"config file {config_path} must hold a JSON object")
            self._file = {str(k).replace("-", "_"): v for k, v in loaded.items()}

    def get(self, name: str, default=None):
        value = self._args.get(name)
        if value is not None:
            return value
        if name in self._file:
            return self._file[name]
        return default


def _emit(payload: dict, text_lines: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _parse_feature_mode(text: str) -> tuple[str, int]:
    if text == "fixed15":
        return "fixed-list", 15
    if text.startswith("rank:"):
        try:
            k = int(text[len("rank:"):])
        except ValueError:
            raise _UsageError(f"bad feature spec {text!r}; use fixed15 or rank:K") from None
        if k < 1:
            raise _UsageError("rank:K needs K >= 1")
        return "correlation-ranked", k
    raise _UsageError(f"bad feature spec {text!r}; use fixed15 or rank:K")


def _parse_keep(text: str | None) -> tuple[str, ...] | None:
    if not text:
        return None
    return tuple(part.strip() for part in text.split(",") if part.strip())


# -- subcommand handlers ------------------------------------------------------


def _cmd_decode(args, settings: _Settings) -> int:
    try:
        service = int(args.service, 16)
        pid = int(args.pid, 16)
        payload = bytes.fromhex(args.bytes)
    except ValueError as e:
        raise _UsageError(f"bad hex argument: {e}") from None
    reading = obd.decode(service, pid, payload)
    value = reading.value
    payload_dict = {
        "service": service,
        "pid": pid,
        "description": reading.descriptor.description,
        "raw": reading.raw.hex(),
        "value": value,
        "unit": reading.unit,
    }
    _emit(payload_dict, [obd.format_reading(reading)], args.format)
    return 0


def _cmd_ingest(args, settings: _Settings) -> int:
    ds = ingest.load_dataset(
        settings.get("input"),
        label_column=settings.get("label_column", ingest.DEFAULT_LABEL_COLUMN),
        exclude_columns=_parse_keep(settings.get("exclude"))
        or ingest.DEFAULT_EXCLUDE_COLUMNS,
    )
    keep = _parse_keep(settings.get("keep"))
    if keep:
        ds = ingest.filter_labels(ds, keep)
    dist = ingest.class_distribution(ds)
    payload = {
        "n_records": len(ds),
        "n_channels": ds.n_channels,
        "label_alphabet": list(ds.label_alphabet),
        "class_distribution": dist,
        "columns": list(ds.column_names),
    }
    lines = [
        f"records: {len(ds)}",
        f"channels: {ds.n_channels}",
        "class distribution:",
    ]
    lines += [f"  {lab}: {dist[lab]:.4f}" for lab in sorted(dist)]
    _emit(payload, lines, args.format)
    return 0


def _cmd_prepare(args, settings: _Settings) -> int:
    out = settings.get("out")
    if not out:
        raise _UsageError("prepare requires --out")
    mode, k = _parse_feature_mode(settings.get("features", "fixed15"))
    ds = ingest.load_dataset(
        settings.get("input"),
        label_column=settings.get("label_column", ingest.DEFAULT_LABEL_COLUMN),
        exclude_columns=_parse_keep(settings.get("exclude"))
        or ingest.DEFAULT_EXCLUDE_COLUMNS,
    )
    keep = _parse_keep(settings.get("keep"))
    if keep:
        ds = ingest.filter_labels(ds, keep)
    selection = features.select_features(ds, mode, k=k)
    spec = WindowSpec(
        length=int(settings.get("window", 60)),
        stride=int(settings.get("stride", 1)),
        statistics=tuple(str(settings.get("stats", "mean,median,std")).split(",")),
    )
    matrix, n_dropped = features.extract_windows(ds, selection.kept, spec)
    matrix.to_csv(out, label_column=ds.label_column)
    sidecar_path = settings.get("sidecar") or out + ".json"
    sidecar = {
        "selection": selection.to_dict(),
        "windows": {
            "count": len(matrix),
            "dropped_mixed_label": n_dropped,
            "n_columns": matrix.n_features,
            "spec": spec.to_dict(),
        },
    }
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
        fh.write("\n")
    payload = {"out": out, "sidecar": sidecar_path, **sidecar["windows"]}
    _emit(
        payload,
        [
            f"windows: {len(matrix)} ({n_dropped} dropped at driver changes)",
            f"columns: {matrix.n_features}",
            f"wrote {out} and {sidecar_path}",
        ],
        args.format,
    )
    return 0


def _model_config(settings: _Settings) -> dict:
    config = {}
    raw = settings.get("model_config")
    if raw:
        try:
            config = raw if isinstance(raw, dict) else json.loads(raw)
        except json.JSONDecodeError as e:
            raise _UsageError(f"--model-config is not valid JSON: {e}") from None
        if not isinstance(config, dict):
            raise _UsageError("--model-config must be a JSON object")
    if settings.get("k") is not None:
        config["k"] = int(settings.get("k"))
    return config


def _cmd_train(args, settings: _Settings) -> int:
    out = settings.get("out")
    if not out:
        raise _UsageError("train requires --out")
    kind = settings.get("kind")
    if kind not in models.KINDS:
        raise _UsageError(f"unknown kind {kind!r}; choose from {sorted(models.KINDS)}")
    matrix = FeatureMatrix.from_csv(
        settings.get("input"),
        label_column=settings.get("label_column", ingest.DEFAULT_LABEL_COLUMN),
    )
    model = models.train(kind, matrix, _model_config(settings))
    models.save_model(model, out)
    payload = {
        "kind": kind,
        "classes": list(model.classes_),
        "n_features": model.n_features_,
        "n_rows": len(matrix),
        "out": out,
    }
    _emit(
        payload,
        [f"trained {kind} on {len(matrix)} rows, classes {list(model.classes_)}",
         f"wrote {out}"],
        args.format,
    )
    return 0


def _cmd_evaluate(args, settings: _Settings) -> int:
    matrix = FeatureMatrix.from_csv(
        settings.get("input"),
        label_column=settings.get("label_column", ingest.DEFAULT_LABEL_COLUMN),
    )
    kind = settings.get("kind", "all")
    kinds = tuple(models.KINDS) if kind == "all" else (kind,)
    for k in kinds:
        if k not in models.KINDS:
            raise _UsageError(f"unknown kind {k!r}; choose from {sorted(models.KINDS)}")
    split = settings.get("split", "random")
    if split not in _SPLIT_FLAGS:
        raise _UsageError(f"--split must be random or blocked, got {split!r}")
    plan = evaluate.CvPlan(
        folds=int(settings.get("folds", 10)),
        stratified=bool(settings.get("stratified", True)),
        seed=int(settings.get("seed", 1)),
        split_mode=_SPLIT_FLAGS[split],
    )
    normalize = settings.get("normalize", "train")
    reports = {
        k: evaluate.cross_validate(
            k, _model_config(settings) if k == kind else None, matrix, plan, normalize=normalize
        )
        for k in kinds
    }
    payload: dict = {"results": {k: r.to_dict() for k, r in reports.items()}}
    if evaluate.BASELINE_KIND in reports:
        payload["comparison"] = evaluate.baseline_compare(list(reports.values()))
    report_path = settings.get("report")
    if report_path:
        pipeline.write_report(payload, report_path)
    lines = [
        f"{k:12s} accuracy {r.accuracy:7.3f}%  (folds: "
        + ", ".join(f"{a:.1f}" for a in r.fold_accuracies)
        + ")"
        for k, r in sorted(reports.items(), key=lambda kv: -kv[1].accuracy)
    ]
    if report_path:
        lines.append(f"wrote {report_path}")
    _emit(payload, lines, args.format)
    return 0


def _load_reports(path: str) -> list:
    """Metrics reports from one JSON file.

    Accepts either a single per-model report or a composite document from
    ``evaluate --report``/``repro`` (per-model reports under ``results``).
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        if isinstance(doc, dict) and "results" in doc:
            return [evaluate.MetricsReport.from_dict(d) for d in doc["results"].values()]
        return [evaluate.MetricsReport.from_dict(doc)]
    except (KeyError, TypeError, AttributeError, ValueError):
        raise DriverIdError(f"{path} is not an evaluation report") from None


def _cmd_compare(args, settings: _Settings) -> int:
    reports = []
    for path in args.reports:
        reports.extend(_load_reports(path))
    comparison = evaluate.baseline_compare(reports)
    lines = [
        f"baseline {comparison['baseline']['kind']}: "
        f"{comparison['baseline']['accuracy']:.2f}%"
    ]
    for row in comparison["ranking"]:
        marker = "+" if row["better_than_baseline"] else " "
        lines.append(
            f"{marker} {row['kind']:12s} {row['accuracy']:7.2f}%  "
            f"delta {row['delta_vs_baseline']:+7.2f}"
        )
    _emit(comparison, lines, args.format)
    return 0


def _cmd_repro(args, settings: _Settings) -> int:
    input_path = settings.get("input") or pipeline.default_dataset_path()
    overrides = {}
    for field_name, flag in (
        ("window_length", "window"),
        ("window_stride", "stride"),
        ("folds", "folds"),
        ("seed", "seed"),
        ("out_dir", "out_dir"),
    ):
        value = settings.get(flag)
        if value is not None:
            overrides[field_name] = int(value) if flag not in ("out_dir",) else value
    config = pipeline.preset_config(args.preset, input_path, **overrides)
    bundle = pipeline.run_pipeline(config)
    lines = [
        f"preset {args.preset}: {bundle['windows']['count']} windows of "
        f"{bundle['windows']['n_columns']} columns "
        f"({bundle['windows']['dropped_mixed_label']} dropped)",
    ]
    ranking = (bundle.get("comparison") or {}).get("ranking", [])
    for row in ranking:
        marker = "+" if row["better_than_baseline"] else " "
        lines.append(
            f"{marker} {row['kind']:12s} {row['accuracy']:7.2f}%  "
            f"delta {row['delta_vs_baseline']:+7.2f}"
        )
    if config.out_dir:
        lines.append(f"wrote {config.out_dir}/report.json")
    _emit(bundle, lines, args.format)
    return 0


# -- parser ---------------------------------------------------------------


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat JSON file with default values for flags")
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )

    parser = _Parser(prog="driverid", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("decode", parents=[common], help="decode an OBD-II payload")
    p.add_argument("--service", required=True, help="service number, hex (e.g. 01)")
    p.add_argument("--pid", required=True, help="parameter id, hex (e.g. 0C)")
    p.add_argument("--bytes", required=True, help="payload bytes, hex (e.g. 1AF8)")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("ingest", parents=[common], help="load and summarize a trip log")
    p.add_argument("--input", help="trip log CSV")
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--exclude", help="comma-separated bookkeeping columns to drop")
    p.add_argument("--keep", help="comma-separated driver labels to keep")
    p.add_argument("--summary", action="store_true", help="print the summary (default)")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser(
        "prepare", parents=[common], help="select features and extract windows"
    )
    p.add_argument("--input", help="trip log CSV")
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--exclude")
    p.add_argument("--keep")
    p.add_argument("--features", help="fixed15 or rank:K")
    p.add_argument("--window", type=int, help="window length in samples")
    p.add_argument("--stride", type=int, help="window stride in samples")
    p.add_argument("--stats", help="comma-separated subset of mean,median,std")
    p.add_argument("--out", help="output CSV for the feature matrix")
    p.add_argument("--sidecar", help="selection/drop-count JSON path (default OUT.json)")
    p.set_defaults(func=_cmd_prepare)

    p = sub.add_parser("train", parents=[common], help="fit one model on a prepared matrix")
    p.add_argument("--input", help="feature matrix CSV (from prepare)")
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--kind", help=f"one of {sorted(models.KINDS)}")
    p.add_argument("--k", type=int, help="neighbor count (knn shorthand)")
    p.add_argument("--model-config", dest="model_config", help="JSON hyperparameters")
    p.add_argument("--out", help="model JSON path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "evaluate", parents=[common], help="cross-validate models on a prepared matrix"
    )
    p.add_argument("--input", help="feature matrix CSV (from prepare)")
    p.add_argument("--label-column", dest="label_column")
    p.add_argument("--kind", help="model kind or 'all'")
    p.add_argument("--k", type=int, help="neighbor count (knn shorthand)")
    p.add_argument("--model-config", dest="model_config", help="JSON hyperparameters")
    p.add_argument("--folds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--split", choices=("random", "blocked"))
    p.add_argument("--normalize", choices=evaluate.NORMALIZE_POLICIES)
    p.add_argument("--report", help="write the full report JSON here")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare", parents=[common], help="rank reports against ZeroR")
    p.add_argument("reports", nargs="+", help="report JSON files from evaluate")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("repro", parents=[common], help="run a benchmark preset")
    p.add_argument("preset", choices=sorted(pipeline.PRESETS))
    p.add_argument("--input", help="dataset CSV (default: $OCSLAB_DRIVING_CSV)")
    p.add_argument("--window", type=int)
    p.add_argument("--stride", type=int)
    p.add_argument("--folds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(func=_cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    try:
        settings = _Settings(args)
        return args.func(args, settings)
    except _UsageError as e:
        print(f"driverid {command}: {e}", file=sys.stderr)
        return 1
    except DriverIdError as e:
        print(f"driverid {command}: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"driverid {command}: missing file: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - safety net
        print(
            f"driverid {command}: internal error: {type(e).__name__}: {e}",
            file=sys.stderr,
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
