"""Command-line interface.

Subcommands: ``decode`` (OBD-II payloads), ``ingest`` (load + summarize trip
logs), ``prepare`` (feature selection + windowing to CSV), ``train`` (fit
one model), ``evaluate`` (cross-validate models on a prepared matrix),
``compare`` (rank evaluation reports against the ZeroR baseline), and
``repro`` (run a named benchmark preset end to end).

Exit codes: 0 success, 1 usage error, 2 data error (an input file that is
missing, undecodable or malformed, unknown PIDs), 3 internal error.
``--config FILE`` supplies flat JSON defaults for the flags that configure a
run and for ``--format``; any other key is a usage error.  Explicit flags win
over the file, and a flag set in neither takes its value from
``pipeline.RunConfig`` (or, for ``repro``, the preset).  Every subcommand
accepts ``--format json``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import errors, evaluate, ingest, models, obd, pipeline
from .errors import DriverIdError
from .features import FeatureMatrix

_SPLIT_FLAGS = {"random": "random-window"}


class _UsageError(Exception):
    """Raised for bad invocations discovered after argparse (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this CLI reserves 2 for
    data errors, so usage problems are rerouted to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Value parsers take a flag or --config value, raise TypeError or ValueError
# on a bad one, and return what the run needs.


def _typed(kind: type, what: str):
    def parse(value):
        if type(value) is not kind:
            raise TypeError(f"expected {what}, got {value!r}")
        return value

    return parse


_str = _typed(str, "a string")
_int = _typed(int, "an integer")
_bool = _typed(bool, "true or false")


def _names(value) -> tuple[str, ...]:
    return tuple(part.strip() for part in _str(value).split(",") if part.strip())


def _feature_spec(value) -> tuple[str, int]:
    if _str(value) == "fixed15":
        return "fixed-list", 15
    head, _, count = value.partition(":")
    if head == "rank" and count.isdigit() and int(count) >= 1:
        return "correlation-ranked", int(count)
    raise ValueError(f"bad feature spec {value!r}; use fixed15 or rank:K with K >= 1")


def _format(value) -> str:
    if _str(value) not in ("text", "json"):
        raise ValueError(f"expected text or json, got {value!r}")
    return value


def _split(value) -> str:
    if _str(value) not in _SPLIT_FLAGS:
        raise ValueError(f"expected one of {sorted(_SPLIT_FLAGS)}, got {value!r}")
    return _SPLIT_FLAGS[value]


def _kinds(value) -> tuple[str, ...]:
    if _str(value) == "all":
        return tuple(models.KINDS)
    if value not in models.KINDS:
        raise ValueError(f"unknown kind {value!r}; choose from {sorted(models.KINDS)} or all")
    return (value,)


def _json_object(value) -> dict:
    value = json.loads(value) if isinstance(value, str) else value
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {value!r}")
    return value


#: Flag (or --config key) -> the RunConfig field(s) it sets and its parser.
#: A flag the user leaves unset passes nothing, so the value comes from
#: RunConfig's defaults or the preset.
_FIELDS = {
    "input": ("input", _str),
    "label_column": ("label_column", _str),
    "exclude": ("exclude_columns", _names),
    "keep": ("keep_labels", _names),
    "features": (("feature_mode", "feature_count"), _feature_spec),
    "window": ("window_length", _int),
    "stride": ("window_stride", _int),
    "stats": ("statistics", _names),
    "kind": ("kinds", _kinds),
    "normalize": ("normalize", _str),
    "folds": ("folds", _int),
    "stratified": ("stratified", _bool),
    "split": ("split_mode", _split),
    "seed": ("seed", _int),
    "out_dir": ("out_dir", _str),
}

#: Every key a --config file may hold: the flags above, and the flags that
#: subcommands read through ``_Settings`` themselves.
_CONFIG_KEYS = frozenset(_FIELDS) | {"format", "model_config", "k", "out", "sidecar", "report"}


class _Settings:
    """Flag > config-file resolution for the subcommand's own flags.

    A config-file key must be one of ``_CONFIG_KEYS``, so a shared file may
    hold every subcommand's keys, but a typo, or a flag that is never read
    from a file, is an error.  ``format`` ("text" when unset) is resolved
    here, since every subcommand prints.
    """

    def __init__(self, args: argparse.Namespace):
        self._args = vars(args)
        self._file = {}
        self._path = path = args.config
        if path:
            with errors.reading(f"config file {path}"), ingest._text_stream(path, "r") as fh:
                loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise DriverIdError(f"config file {path} must hold a JSON object")
            self._file = {str(k).replace("-", "_"): v for k, v in loaded.items()}
            unknown = sorted(set(self._file) - _CONFIG_KEYS)
            if unknown:
                raise _UsageError(f"{path}: unknown config key(s) {', '.join(unknown)}")
        self.format = self.get("format", _format) or "text"

    def get(self, name: str, parse=_str):
        """Parsed value of the subcommand's flag ``name`` (None when unset);
        a value ``parse`` rejects is a usage error naming its key."""
        value, where = self._args.get(name), "--" + name.replace("_", "-")
        if value is None and name in self._args:
            value, where = self._file.get(name), f"{name!r} in {self._path}"
        if value is None:
            return None
        try:
            return parse(value)
        except (TypeError, ValueError) as e:
            raise _UsageError(f"{where}: {e}") from None


def _fields(settings: _Settings, **defaults) -> dict:
    """RunConfig fields for the flags that are set, over ``defaults``.

    ``--model-config`` and ``--k`` configure the one kind ``--kind`` names;
    ``input`` must be set or defaulted.
    """
    fields = dict(defaults)
    for flag, (field, parse) in _FIELDS.items():
        value = settings.get(flag, parse)
        if value is not None:
            fields.update(zip(field, value) if isinstance(field, tuple) else {field: value})
    hyper = dict(settings.get("model_config", _json_object) or {})
    k = settings.get("k", _int)
    if k is not None:
        hyper["k"] = k
    if hyper:
        if len(fields.get("kinds", ())) != 1:
            raise _UsageError("--model-config and --k need a single --kind")
        fields["model_configs"] = {fields["kinds"][0]: hyper}
    if "input" not in fields:
        raise _UsageError("--input is required")
    return fields


def _emit(payload: dict, text_lines: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _ranking_lines(comparison: dict) -> list[str]:
    baseline = comparison["baseline"]
    lines = [f"baseline {baseline['kind']}: {baseline['accuracy']:.2f}%"]
    for row in comparison["ranking"]:
        marker = "+" if row["better_than_baseline"] else " "
        lines.append(
            f"{marker} {row['kind']:12s} {row['accuracy']:7.2f}%  "
            f"delta {row['delta_vs_baseline']:+7.2f}"
        )
    return lines


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
    _emit(payload_dict, [obd.format_reading(reading)], settings.format)
    return 0


def _cmd_ingest(args, settings: _Settings) -> int:
    ds = pipeline.load_trips(pipeline.RunConfig(**_fields(settings)))
    payload = {**pipeline.dataset_summary(ds), "columns": list(ds.column_names)}
    lines = [f"records: {len(ds)}", f"channels: {ds.n_channels}", "class distribution:"]
    lines += [f"  {lab}: {share:.4f}" for lab, share in payload["class_distribution"].items()]
    _emit(payload, lines, settings.format)
    return 0


def _cmd_prepare(args, settings: _Settings) -> int:
    out = settings.get("out")
    if not out:
        raise _UsageError("prepare requires --out")
    config = pipeline.RunConfig(**_fields(settings))
    ds, selection, matrix, n_dropped = pipeline.prepare_matrix(config)
    matrix.to_csv(out, label_column=config.label_column)
    sidecar_path = settings.get("sidecar") or out + ".json"
    sidecar = {
        "selection": selection.to_dict(),
        "windows": pipeline.windows_summary(config, matrix, n_dropped),
    }
    pipeline.write_report(sidecar, sidecar_path)
    lines = [
        f"windows: {len(matrix)} ({n_dropped} dropped at driver changes)",
        f"columns: {matrix.n_features}",
        f"wrote {out} and {sidecar_path}",
    ]
    _emit({"out": out, "sidecar": sidecar_path, **sidecar["windows"]}, lines, settings.format)
    return 0


def _cmd_train(args, settings: _Settings) -> int:
    out = settings.get("out")
    if not out:
        raise _UsageError("train requires --out")
    config = pipeline.RunConfig(**_fields(settings, kinds=()))
    if len(config.kinds) != 1:
        raise _UsageError("train requires a single --kind")
    kind = config.kinds[0]
    matrix = FeatureMatrix.from_csv(config.input, label_column=config.label_column)
    model = models.train(kind, matrix, config.model_configs.get(kind))
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
        settings.format,
    )
    return 0


def _cmd_evaluate(args, settings: _Settings) -> int:
    config = pipeline.RunConfig(**_fields(settings, kinds=tuple(models.KINDS)))
    matrix = FeatureMatrix.from_csv(config.input, label_column=config.label_column)
    reports, comparison = pipeline.cross_validate_kinds(config, matrix)
    payload: dict = {"results": {k: r.to_dict() for k, r in reports.items()}}
    if comparison is not None:
        payload["comparison"] = comparison
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
    _emit(payload, lines, settings.format)
    return 0


def _load_reports(path: str) -> list:
    """Metrics reports from one JSON file.

    Accepts either a single per-model report or a composite document from
    ``evaluate --report``/``repro`` (per-model reports under ``results``).
    Each is rebuilt from its confusion counts, and a report that does not
    agree with them is a data error naming ``path``.
    """
    with errors.reading(f"{path} is not an evaluation report"):
        with ingest._text_stream(path, "r") as fh:
            doc = json.load(fh)
        docs = doc["results"].values() if isinstance(doc, dict) and "results" in doc else [doc]
        return [evaluate.MetricsReport.from_dict(d) for d in docs]


def _cmd_compare(args, settings: _Settings) -> int:
    reports = []
    for path in args.reports:
        reports.extend(_load_reports(path))
    comparison = evaluate.baseline_compare(reports)
    _emit(comparison, _ranking_lines(comparison), settings.format)
    return 0


def _cmd_repro(args, settings: _Settings) -> int:
    fields = _fields(settings, input=pipeline.default_dataset_path())
    config = pipeline.preset_config(args.preset, fields.pop("input"), **fields)
    bundle = pipeline.run_pipeline(config)
    windows = bundle["windows"]
    lines = [
        f"preset {args.preset}: {windows['count']} windows of {windows['n_columns']} "
        f"columns ({windows['dropped_mixed_label']} dropped)",
        *_ranking_lines(bundle["comparison"]),
    ]
    if config.out_dir:
        lines.append(f"wrote {config.out_dir}/report.json")
    _emit(bundle, lines, settings.format)
    return 0


# -- parser ---------------------------------------------------------------


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat JSON file with default values for flags")
    common.add_argument("--format", choices=("text", "json"), help="output format (default text)")

    parser = _Parser(prog="driverid", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("decode", parents=[common], help="decode an OBD-II payload")
    p.add_argument("--service", required=True, help="service number, hex (e.g. 01)")
    p.add_argument("--pid", required=True, help="parameter id, hex (e.g. 0C)")
    p.add_argument("--bytes", required=True, help="payload bytes, hex (e.g. 1AF8)")
    p.set_defaults(func=_cmd_decode)

    trips = argparse.ArgumentParser(add_help=False, parents=[common])
    trips.add_argument("--input", help="trip log CSV")
    trips.add_argument("--label-column")
    trips.add_argument("--exclude", help="comma-separated bookkeeping columns to drop")
    trips.add_argument("--keep", help="comma-separated driver labels to keep")

    p = sub.add_parser("ingest", parents=[trips], help="load and summarize a trip log")
    p.set_defaults(func=_cmd_ingest)

    windows = argparse.ArgumentParser(add_help=False)
    windows.add_argument("--window", type=int, help="window length in samples")
    windows.add_argument("--stride", type=int, help="window stride in samples")
    cv = argparse.ArgumentParser(add_help=False)
    cv.add_argument("--folds", type=int, help="cross-validation folds")
    cv.add_argument("--seed", type=int, help="fold-assignment and model seed")

    p = sub.add_parser(
        "prepare", parents=[trips, windows], help="select features and extract windows"
    )
    p.add_argument("--features", help="fixed15 or rank:K")
    p.add_argument("--stats", help="comma-separated subset of mean,median,std")
    p.add_argument("--out", help="output CSV for the feature matrix")
    p.add_argument("--sidecar", help="selection/drop-count JSON path (default OUT.json)")
    p.set_defaults(func=_cmd_prepare)

    fits = argparse.ArgumentParser(add_help=False, parents=[common])
    fits.add_argument("--input", help="feature matrix CSV (from prepare)")
    fits.add_argument("--label-column")
    fits.add_argument("--kind", help=f"one of {sorted(models.KINDS)}, or all (evaluate only)")
    fits.add_argument("--k", type=int, help="neighbor count (knn shorthand; needs one --kind)")
    fits.add_argument("--model-config", help="JSON hyperparameters (needs one --kind)")

    p = sub.add_parser("train", parents=[fits], help="fit one model on a prepared matrix")
    p.add_argument("--out", help="model JSON path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "evaluate", parents=[fits, cv], help="cross-validate models on a prepared matrix"
    )
    p.add_argument("--split", choices=sorted(_SPLIT_FLAGS))
    p.add_argument("--normalize", choices=evaluate.NORMALIZE_POLICIES)
    p.add_argument("--report", help="write the full report JSON here")
    # ``stratified`` has no flag; a --config file may still set it.
    p.set_defaults(func=_cmd_evaluate, stratified=None)

    p = sub.add_parser("compare", parents=[common], help="rank reports against ZeroR")
    p.add_argument("reports", nargs="+", help="report JSON files from evaluate")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("repro", parents=[common, windows, cv], help="run a benchmark preset")
    p.add_argument("preset", choices=sorted(pipeline.PRESETS))
    p.add_argument("--input", help="dataset CSV (default: $OCSLAB_DRIVING_CSV)")
    p.add_argument("--out-dir")
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
    except OSError as e:
        print(f"driverid {command}: file error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - safety net
        print(
            f"driverid {command}: internal error: {type(e).__name__}: {e}",
            file=sys.stderr,
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
