"""The benchmark workloads: inputs, one timed pass, and output checks.

Every workload runs in a directory of its own.  ``setup`` writes the inputs
there (it runs in a child process so that its time and memory stay out of
the measured run), ``load`` reads what a user would already hold in memory,
``run`` is one timed pass, and ``check`` compares the passes of a run with
each other and with an independent route to the same output.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from driverid import features, ingest, models, pipeline

import gen

SPEC = features.WindowSpec(length=60, stride=1)
LOG = "log.csv"


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class Pass:
    """One timed pass and what its checks found."""

    seconds: float
    windows: int
    digest: str
    accuracy: float | None = None
    latencies_ms: list[float] = field(default_factory=list)
    attempted: int = 1
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    outputs: tuple | None = None  # kept for the cross-pass check, then dropped

    def fail(self, message: str, count: int = 1) -> None:
        self.failures.append(message)
        self.failed = min(self.attempted, self.failed + count)


class Workload:
    name = ""
    rows = 0

    def setup(self, seed: int, rows: int) -> None:
        gen.write_log(LOG, seed, rows)

    def load(self) -> None:
        pass

    def run(self, tracer=None) -> Pass:
        raise NotImplementedError

    def check(self, passes: list[Pass]) -> None:
        """Every pass runs the same code on the same input: same output."""
        for p in passes[1:]:
            if p.digest != passes[0].digest:
                p.fail(f"output digest {p.digest[:12]} differs from the first pass's "
                       f"{passes[0].digest[:12]}")


class PrepareWide(Workload):
    """``driverid prepare`` on the 51-channel log: rank, window, write."""

    name = "prepare-wide"
    rows = 20000
    out = "matrix.csv"

    def run(self, tracer=None) -> Pass:
        start = time.perf_counter()
        ds = ingest.load_dataset(LOG)
        selection = features.select_features(ds, "correlation-ranked", k=15)
        matrix, _ = features.extract_windows(ds, selection.kept, SPEC)
        matrix.to_csv(self.out, label_column=ds.label_column)
        seconds = time.perf_counter() - start
        self.matrix = matrix
        return Pass(seconds, len(matrix), sha256_file(self.out))

    def check(self, passes: list[Pass]) -> None:
        super().check(passes)
        again = features.FeatureMatrix.from_csv(self.out)
        if not (again.column_names == self.matrix.column_names
                and again.labels == self.matrix.labels
                and np.array_equal(again.features, self.matrix.features)):
            passes[-1].fail("matrix CSV does not reload to identical arrays")


class CrossValidate(Workload):
    """``run_pipeline`` on a paper preset, writing ``report.json``."""

    def __init__(self, name: str, preset: str, rows: int):
        self.name, self.preset, self.rows = name, preset, rows

    def run(self, tracer=None) -> Pass:
        config = pipeline.preset_config(self.preset, LOG, out_dir="out")
        start = time.perf_counter()
        bundle = pipeline.run_pipeline(config)
        seconds = time.perf_counter() - start
        windows = bundle["windows"]["count"]
        results = bundle["results"]
        accuracy = [r["accuracy"] for kind, r in results.items() if kind != "zeror"]
        p = Pass(seconds, windows, sha256_file(os.path.join("out", "report.json")),
                 accuracy=sum(accuracy) / len(accuracy))
        for kind, report in results.items():
            total = sum(map(sum, report["confusion"]))
            if total != windows:
                p.fail(f"{kind} confusion total {total} != {windows} windows")
        majority = 100.0 * max(bundle["windows"]["class_distribution"].values())
        if results["zeror"]["accuracy"] != majority:
            p.fail(f"zeror accuracy {results['zeror']['accuracy']!r} != majority share {majority!r}")
        return p


class ScoreOnline(Workload):
    """Closed loop, one client: load saved models, score one window at a time."""

    name = "score-online"
    rows = 8000
    kinds = pipeline.PRESETS["table7"]["kinds"]
    hop = 10
    train_share = 0.8

    def setup(self, seed: int, rows: int) -> None:
        super().setup(seed, rows)
        ds = ingest.load_dataset(LOG)
        kept = features.select_features(ds).kept
        labels = np.asarray(ds.labels)
        train = np.zeros(len(ds), dtype=bool)
        tails, bounds, tail_labels = [], [0], []
        for label in ds.label_alphabet:
            rows_of = np.flatnonzero(labels == label)
            cut = rows_of[0] + int(self.train_share * rows_of.size)
            train[rows_of[0]:cut] = True
            tails.append(ds.channels[cut:rows_of[-1] + 1][:, [ds.column_index(c) for c in kept]])
            bounds.append(bounds[-1] + int(tails[-1].shape[0]))
            tail_labels.append(label)
        train_ds = ingest.TripDataset(
            column_names=ds.column_names,
            channels=ds.channels[train],
            labels=tuple(labels[train]),
            label_alphabet=ds.label_alphabet,
        )
        matrix, _ = features.extract_windows(train_ds, kept, SPEC)
        normalizer = features.fit_normalizer(matrix)
        matrix = features.apply_normalizer(normalizer, matrix)
        for kind in self.kinds:
            models.save_model(models.train(kind, matrix), f"{kind}.json")
        with open("normalizer.json", "w", encoding="utf-8") as fh:
            json.dump(normalizer.to_dict(), fh, sort_keys=True)
        # .npy and JSON rather than .npz: a zip member carries a timestamp,
        # and setup output must be byte-identical for a seed.
        np.save("tail.npy", np.concatenate(tails))
        with open("tail.json", "w", encoding="utf-8") as fh:
            json.dump({"bounds": bounds, "labels": tail_labels, "columns": list(kept)}, fh)

    def load(self) -> None:
        channels = np.load("tail.npy")
        with open("tail.json", encoding="utf-8") as fh:
            tail = json.load(fh)
        bounds = tail["bounds"]
        self.columns = tuple(tail["columns"])
        self.requests = [
            (label, channels[lo + s : lo + s + SPEC.length])
            for label, lo, hi in zip(tail["labels"], bounds[:-1], bounds[1:])
            for s in range(0, hi - lo - SPEC.length + 1, self.hop)
        ]

    def run(self, tracer=None) -> Pass:
        start = time.perf_counter()
        loaded = [models.load_model(f"{kind}.json") for kind in self.kinds]
        with open("normalizer.json", encoding="utf-8") as fh:
            normalizer = features.NormalizationParams.from_dict(json.load(fh))
        latencies, rows, predictions = [], [], []
        for label, samples in self.requests:
            if tracer is not None:
                tracer.request += 1
            t0 = time.perf_counter()
            # The client does not know the driver, so the samples carry a
            # placeholder label.
            window = ingest.TripDataset(
                column_names=self.columns,
                channels=samples,
                labels=("?",) * len(samples),
                label_alphabet=("?",),
            )
            matrix, _ = features.extract_windows(window, self.columns, SPEC)
            x = features.apply_normalizer(normalizer, matrix.features)
            predictions.append([model.predict(x)[0] for model in loaded])
            latencies.append(1e3 * (time.perf_counter() - t0))
            rows.append(x[0])
        seconds = time.perf_counter() - start
        truth = [label for label, _ in self.requests]
        hits = [
            100.0 * sum(p[k] == t for p, t in zip(predictions, truth)) / len(truth)
            for k, kind in enumerate(self.kinds)
            if kind != "zeror"
        ]
        self.loaded = loaded
        digest = hashlib.sha256(json.dumps(predictions).encode()).hexdigest()
        return Pass(seconds, len(truth), digest, accuracy=sum(hits) / len(hits),
                    latencies_ms=latencies, attempted=len(truth),
                    outputs=(np.asarray(rows), predictions))

    def check(self, passes: list[Pass]) -> None:
        """Per-window predictions must equal one batch predict per kind."""
        rows = passes[-1].outputs[0]
        batch = [list(p) for p in zip(*(model.predict(rows) for model in self.loaded))]
        for p in passes:
            bad = sum(
                not np.array_equal(row, ref) or pred != expect
                for row, pred, ref, expect in zip(*p.outputs, rows, batch)
            )
            if bad:
                p.fail(f"{bad} windows differ from one batch predict over the same windows", bad)
            p.outputs = None


WORKLOADS = {
    w.name: w
    for w in (
        PrepareWide(),
        CrossValidate("table6-binary", "table6", 3000),
        CrossValidate("table7-tenclass", "table7", 3000),
        ScoreOnline(),
    )
}
