"""Spans around the calls into each driverid layer, recorded from outside.

:class:`Tracer` wraps the public entry points of ``driverid.ingest``,
``features``, ``evaluate``, ``models`` and ``pipeline`` for the duration of
``with tracer.installed():`` and restores them on exit.  A function that
another module imported by name is replaced in every driverid module that
holds it, so internal calls are seen too.  Each span records its name,
start, end, parent span and request id; spans stay in memory until
:meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

from driverid import evaluate, features, ingest, models, pipeline

# (module, function names) wrapped as "<layer>.<function>" spans.
FUNCTIONS = (
    (ingest, ("load_dataset", "filter_labels", "class_distribution")),
    (features, ("select_features", "extract_windows", "fit_normalizer", "apply_normalizer")),
    (evaluate, ("fold_assignments", "confusion_from_predictions", "metrics",
                "cross_validate", "baseline_compare")),
    (models, ("make", "train", "save_model", "load_model")),
    (pipeline, ("prepare_matrix", "run_pipeline", "write_report")),
)


def _counts_load_dataset(args, result):
    return {"rows": len(result)}


def _counts_extract_windows(args, result):
    matrix, dropped = result
    return {"windows": len(matrix), "dropped_windows": dropped}


def _counts_cross_validate(args, result):
    return {"kind": args[0]}


def _counts_knn_predict(args, result):
    # Computed from the sizes: one distance per (query, training row) pair.
    model = args[0]
    return {"distance_evals": len(result) * model.X_.shape[0]}


def _counts_logreg_fit(args, result):
    return {"epochs": result.n_epochs_}


def _counts_reptree_fit(args, result):
    return {"nodes": result.node_count}


COUNTERS = {
    "ingest.load_dataset": _counts_load_dataset,
    "features.extract_windows": _counts_extract_windows,
    "evaluate.cross_validate": _counts_cross_validate,
    "models.knn.predict": _counts_knn_predict,
    "models.logreg.fit": _counts_logreg_fit,
    "models.reptree.fit": _counts_reptree_fit,
}


_MISSING = object()


class Tracer:
    """In-memory span recorder.

    ``spans`` holds ``[name, start, end, parent, request, counts]`` lists;
    ``parent`` is the index of the enclosing span or -1.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, self.request, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span[5] = counter(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer entry points while the block runs."""
        undo = []

        def patch(owner, attr, value):
            undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, value)

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "driverid"]
        try:
            for module, names in FUNCTIONS:
                layer = module.__name__.split(".")[1]
                for fname in names:
                    original = getattr(module, fname)
                    traced = self.wrap(f"{layer}.{fname}", original)
                    for holder in modules:
                        for attr, value in list(vars(holder).items()):
                            if value is original:
                                patch(holder, attr, traced)
            patch(features.FeatureMatrix, "to_csv",
                  self.wrap("features.matrix_to_csv", features.FeatureMatrix.to_csv))
            for kind, cls in models.KINDS.items():
                for method in ("fit", "predict"):
                    patch(cls, method, self.wrap(f"models.{kind}.{method}", getattr(cls, method)))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                if value is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, value)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [dict(zip(("name", "start", "end", "parent", "request", "counts"), s))
                 for s in self.spans],
                fh,
            )


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own
