"""Acceptance checklist for the driver-identification pipeline.

Each test here is one numbered criterion from the project's acceptance
checklist (see README).  Criteria 1-5 replicate the published benchmark
numbers and need the real ten-driver dataset — they skip cleanly when it
is absent.  Criteria 6-14 are self-contained properties checked against
independent oracles and must always pass.

Every test prints exactly one ``criterion NN: PASS``/``FAIL`` line
(visible with ``pytest -rA`` or ``-s``); the test outcome mirrors it.
"""

import json
from collections import Counter

import numpy as np
import pytest

from driverid import evaluate, features, ingest, models, obd, pipeline
from driverid.errors import PayloadLengthMismatch
from driverid.evaluate import ConfusionMatrix, CvPlan, Folds, cross_validate, per_class_counts
from driverid.features import (
    DEFAULT_FIXED_FEATURES,
    FeatureMatrix,
    WindowSpec,
    apply_normalizer,
    column_stats,
    fit_normalizer,
    window_count,
)
from driverid.models import GaussianNaiveBayes, KNearestNeighbors, RepTree
from driverid.models.logistic import loss_and_grad

from conftest import requires_dataset, write_trip_csv


def _verdict(n: int, failures: list[str]) -> None:
    line = f"criterion {n:02d}: " + ("PASS" if not failures else "FAIL")
    if failures:
        line += " — " + "; ".join(failures)
    print(line)
    assert not failures, line


def _acc(bundle: dict, kind: str) -> float:
    return bundle["results"][kind]["accuracy"]


# -- dataset-replication criteria (1-5) -----------------------------------------

@requires_dataset
def test_criterion_01_two_driver_benchmark(table6_run):
    bundle, elapsed = table6_run
    failures = []
    if not _acc(bundle, "knn") >= 99.0:
        failures.append(f"knn {_acc(bundle, 'knn'):.2f} < 99")
    if not _acc(bundle, "reptree") >= 99.0:
        failures.append(f"reptree {_acc(bundle, 'reptree'):.2f} < 99")
    for kind in ("svm", "logreg", "naive_bayes"):
        if not _acc(bundle, kind) >= 95.0:
            failures.append(f"{kind} {_acc(bundle, kind):.2f} < 95")
    zeror = _acc(bundle, "zeror")
    if not abs(zeror - 78.54) <= 4.0:
        failures.append(f"zeror {zeror:.2f} not within ±4 of 78.54")
    if not elapsed < 300.0:
        failures.append(f"runtime {elapsed:.0f}s >= 300s")
    _verdict(1, failures)


@requires_dataset
def test_criterion_02_ten_driver_benchmark(table7_run):
    bundle, elapsed = table7_run
    failures = []
    if not _acc(bundle, "reptree") >= 93.0:
        failures.append(f"reptree {_acc(bundle, 'reptree'):.2f} < 93")
    knn = _acc(bundle, "knn")
    if not 65.0 <= knn <= 90.0:
        failures.append(f"knn {knn:.2f} outside [65, 90]")
    zeror = _acc(bundle, "zeror")
    if not abs(zeror - 14.03) <= 2.0:
        failures.append(f"zeror {zeror:.2f} not within ±2 of 14.03")
    majority_pct = 100.0 * max(bundle["windows"]["class_distribution"].values())
    if zeror != majority_pct:
        failures.append(f"zeror {zeror!r} != majority window share {majority_pct!r}")
    nb = _acc(bundle, "naive_bayes")
    if not nb < knn - 10.0:
        failures.append(f"naive_bayes {nb:.2f} not well below knn {knn:.2f}")
    if not elapsed < 900.0:
        failures.append(f"runtime {elapsed:.0f}s >= 900s")
    _verdict(2, failures)


@requires_dataset
def test_criterion_03_everything_beats_the_baseline(table6_run, table7_run):
    failures = []
    for name, (bundle, _) in (("two-driver", table6_run), ("ten-driver", table7_run)):
        for row in bundle["comparison"]["ranking"]:
            if row["kind"] == "zeror":
                continue
            if not row["better_than_baseline"] or not row["delta_vs_baseline"] > 0:
                failures.append(
                    f"{name}: {row['kind']} does not exceed baseline "
                    f"(delta {row['delta_vs_baseline']:+.2f})"
                )
    _verdict(3, failures)


@requires_dataset
def test_criterion_04_knn_accuracy_never_rises_with_k(table6_matrix):
    folds = Folds.build(table6_matrix, CvPlan(folds=10, seed=1))
    ks = (1, 3, 5, 7)
    accs = {k: cross_validate("knn", {"k": k}, folds).accuracy for k in ks}
    failures = []
    for a, b in zip(ks, ks[1:]):
        if not accs[b] <= accs[a] + 0.5:
            failures.append(f"k={b} ({accs[b]:.2f}) above k={a} ({accs[a]:.2f}) + 0.5")
    _verdict(4, failures)


#: Reference mean/std of the 15 benchmark channels over the full ten-driver
#: dataset, in DEFAULT_FIXED_FEATURES order.
REFERENCE_FEATURE_STATS = (
    (2.843, 1.363),
    (36.85, 27.95),
    (3.719, 8.506),
    (757.0, 761.13),
    (67.5, 9.5),
    (23.75, 14.73),
    (41.30, 18.38),
    (13.7, 2.27),
    (0.89, 0.31),
    (84.24, 6.12),
    (80.21, 10.5),
    (30.11, 26.48),
    (29.36, 26.22),
    (29.20, 26.10),
    (1259.15, 766.51),
)


@requires_dataset
def test_criterion_05_feature_statistics_audit(ocslab_dataset):
    report = features.select_features(ocslab_dataset, "fixed-list")
    failures = []
    for name, column, (want_mean, want_std) in zip(
        DEFAULT_FIXED_FEATURES, report.kept, REFERENCE_FEATURE_STATS
    ):
        mean, std = column_stats(ocslab_dataset, column)
        if abs(mean - want_mean) > 0.5:
            failures.append(f"{name}: mean {mean:.3f} vs {want_mean} (±0.5)")
        if abs(std - want_std) > 0.5:
            failures.append(f"{name}: std {std:.3f} vs {want_std} (±0.5)")
    _verdict(5, failures)


# -- property criteria (6-14) ------------------------------------------------------


def _oracle_knn(X_train, y_train, queries, k, classes):
    """Reference k-NN: full (distance, index) sort, lowest-class tie-break."""
    out = []
    for q in queries:
        d2 = ((X_train - q) ** 2).sum(axis=1)
        order = np.lexsort((np.arange(len(X_train)), d2))
        votes = Counter(y_train[i] for i in order[:k])
        best = max(votes.values())
        out.append(min(c for c in classes if votes.get(c, 0) == best))
    return out


def test_criterion_06_knn_matches_exhaustive_oracle():
    rng = np.random.default_rng(42)
    failures = []
    for trial in range(100):
        n = int(rng.integers(5, 40))
        d = int(rng.integers(1, 4))
        k = int(rng.choice([1, 3, 5, 7]))
        # integer coordinates make squared distances exact in both the
        # model's expansion and the oracle's direct sum, so ties are real
        X = rng.integers(0, 6, size=(n, d)).astype(np.float64)
        y = np.asarray([chr(ord("A") + int(v)) for v in rng.integers(0, 3, size=n)])
        Q = rng.integers(0, 6, size=(10, d)).astype(np.float64)
        model = KNearestNeighbors(k=k).fit(X, y)
        got = model.predict(Q)
        want = _oracle_knn(X, y, Q, min(k, n), model.classes_)
        if got != want:
            failures.append(f"trial {trial} (n={n}, d={d}, k={k}): {got} != {want}")
            break
    _verdict(6, failures)


def test_criterion_07_logreg_gradient_check():
    rng = np.random.default_rng(7)
    failures = []
    eps = 1e-6
    for trial in range(50):
        n, d, K = int(rng.integers(4, 12)), int(rng.integers(1, 5)), int(rng.integers(2, 5))
        X = np.column_stack([rng.normal(size=(n, d)), np.ones(n)])
        y_idx = rng.integers(0, K, size=n)
        y_idx[:K] = np.arange(K)  # every class present
        l2 = float(rng.choice([0.0, 0.01, 0.1]))
        W = rng.normal(scale=0.5, size=(K, d + 1))
        _, grad = loss_and_grad(W, X, y_idx, l2=l2)
        worst = 0.0
        for i in range(K):
            for j in range(d + 1):
                Wp, Wm = W.copy(), W.copy()
                Wp[i, j] += eps
                Wm[i, j] -= eps
                fd = (loss_and_grad(Wp, X, y_idx, l2=l2)[0]
                      - loss_and_grad(Wm, X, y_idx, l2=l2)[0]) / (2 * eps)
                rel = abs(grad[i, j] - fd) / max(1.0, abs(fd))
                worst = max(worst, rel)
        if worst > 1e-4:
            failures.append(f"trial {trial}: relative error {worst:.2e} > 1e-4")
            break
    _verdict(7, failures)


def test_criterion_08_confusion_matrix_identities():
    rng = np.random.default_rng(8)
    failures = []
    for trial in range(1000):
        k = int(rng.integers(1, 11))
        counts = rng.integers(0, 25, size=(k, k))
        if counts.sum() == 0:
            counts[0, 0] = 1
        cm = ConfusionMatrix(
            classes=tuple(chr(ord("a") + i) for i in range(k)), counts=counts
        )
        n = int(counts.sum())
        tps, fps = [], []
        for i in range(k):
            tp, fp, fn, tn = per_class_counts(cm, i)
            if tp + fp + fn + tn != n:
                failures.append(f"trial {trial}: class {i} counts sum {tp+fp+fn+tn} != {n}")
        if failures:
            break
        tps = [per_class_counts(cm, i)[0] for i in range(k)]
        fps = [per_class_counts(cm, i)[1] for i in range(k)]
        if sum(tps) != np.trace(counts):
            failures.append(f"trial {trial}: sum TP != trace")
            break
        denom = sum(tps) + sum(fps)
        micro_precision = sum(tps) / denom if denom else 0.0
        accuracy = np.trace(counts) / n
        if abs(micro_precision - accuracy) > 1e-12:
            failures.append(f"trial {trial}: micro-precision != accuracy")
            break
    _verdict(8, failures)


def test_criterion_09_normalization_properties():
    rng = np.random.default_rng(9)
    failures = []
    for trial in range(200):
        n, d = int(rng.integers(2, 40)), int(rng.integers(1, 6))
        X = rng.normal(scale=rng.uniform(0.1, 100), size=(n, d))
        const_col = int(rng.integers(0, d))
        X[:, const_col] = rng.normal()
        params = fit_normalizer(X)
        Z = apply_normalizer(params, X)
        for c in range(d):
            col = Z[:, c]
            if c == const_col:
                if not (col == 0.0).all():
                    failures.append(f"trial {trial}: constant column not mapped to 0")
                continue
            if not (abs(col.min()) <= 1e-12 and abs(col.max() - 1.0) <= 1e-12):
                failures.append(
                    f"trial {trial}: endpoints [{col.min():.2e}, {col.max():.2e}]"
                )
            order = np.argsort(X[:, c], kind="stable")
            if not (np.diff(col[order]) >= -1e-12).all():
                failures.append(f"trial {trial}: monotonicity broken in column {c}")
        if failures:
            break
    _verdict(9, failures)


def test_criterion_10_window_count_formula():
    failures = []
    for n in range(1, 51):
        for length in range(1, n + 1):
            for stride in range(1, n + 1):
                enumerated = len(range(0, n - length + 1, stride))
                formula = window_count(n, length, stride)
                if formula != enumerated:
                    failures.append(
                        f"(N={n}, L={length}, S={stride}): {formula} != {enumerated}"
                    )
    _verdict(10, failures)


def test_criterion_11_nb_posterior_normalization():
    rng = np.random.default_rng(11)
    failures = []
    for trial in range(50):
        n, d, K = int(rng.integers(6, 60)), int(rng.integers(1, 5)), int(rng.integers(2, 4))
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 20)
        y = [chr(ord("A") + int(v)) for v in rng.integers(0, K, size=n)]
        for c in range(K):
            y[c] = chr(ord("A") + c)
        model = GaussianNaiveBayes().fit(X, y)
        P = model.predict_proba(rng.normal(size=(20, d)))
        if not np.allclose(P.sum(axis=1), 1.0, atol=1e-9):
            failures.append(f"trial {trial}: posterior rows do not sum to 1")
            break
        if (P < 0).any():
            failures.append(f"trial {trial}: negative posterior")
            break
    # mirrored two-class data: the midpoint must split exactly even
    X = np.array([[-3.0], [-1.0], [1.0], [3.0]])
    model = GaussianNaiveBayes().fit(X, ["A", "A", "B", "B"])
    p = model.predict_proba([[0.0]])[0]
    if not np.allclose(p, [0.5, 0.5], atol=1e-9):
        failures.append(f"midpoint posteriors {p} != (0.5, 0.5)")
    _verdict(11, failures)


class _GrowOnlyTree(RepTree):
    """RepTree that skips pruning but keeps the same grow partition."""

    def _fit(self, X, y_idx):
        n = X.shape[0]
        rng = np.random.default_rng(self.seed)
        perm = rng.permutation(n)
        n_prune = min(int(round(self.pruning_fraction * n)), n - 1)
        self._grow(X[perm[n_prune:]], y_idx[perm[n_prune:]])
        self._compact()


def test_criterion_12_pruning_never_hurts_the_prune_set():
    rng = np.random.default_rng(12)
    failures = []
    for trial in range(50):
        n, d = int(rng.integers(40, 200)), int(rng.integers(2, 6))
        X = rng.normal(size=(n, d))
        rule = X[:, 0] + 0.5 * X[:, 1 % d] > 0
        y = np.where(rule, "A", "B")
        flips = rng.random(n) < 0.2
        y = np.where(flips, np.where(y == "A", "B", "A"), y)
        y = list(y)
        seed = int(rng.integers(0, 10_000))

        pruned = RepTree(seed=seed).fit(X, y)
        grown = _GrowOnlyTree(seed=seed).fit(X, y)

        # rebuild the same partition to recover the held-out pruning rows
        perm = np.random.default_rng(seed).permutation(n)
        n_prune = min(int(round(pruned.pruning_fraction * n)), n - 1)
        X_prune = X[perm[:n_prune]]
        y_prune = np.asarray(y)[perm[:n_prune]]

        err_grown = np.mean(np.asarray(grown.predict(X_prune)) != y_prune)
        err_pruned = np.mean(np.asarray(pruned.predict(X_prune)) != y_prune)
        if err_pruned > err_grown:
            failures.append(
                f"trial {trial}: prune-set error rose {err_grown:.4f} -> {err_pruned:.4f}"
            )
            break
        if pruned.node_count > grown.node_count:
            failures.append(
                f"trial {trial}: node count rose {grown.node_count} -> {pruned.node_count}"
            )
            break
    _verdict(12, failures)


def test_criterion_13_pid_codec_boundaries():
    failures = []
    checks = (
        (0x0C, bytes([0xFF, 0xFF]), 16383.75),
        (0x0C, bytes([0x00, 0x00]), 0.0),
        (0x0D, bytes([0x00]), 0.0),
        (0x0D, bytes([0xFF]), 255.0),
        (0x05, bytes([0x00]), -40.0),
        (0x0F, bytes([0x00]), -40.0),
    )
    for pid, payload, want in checks:
        got = obd.decode(0x01, pid, payload).value
        if got != want:
            failures.append(f"PID {pid:#04x} {payload.hex()} -> {got} != {want}")
    for pid, payload in ((0x0C, b"\x00"), (0x0D, b"\x00\x00"), (0x05, b"")):
        try:
            obd.decode(0x01, pid, payload)
            failures.append(f"PID {pid:#04x} accepted {len(payload)}-byte payload")
        except PayloadLengthMismatch:
            pass
    _verdict(13, failures)


def test_criterion_14_reports_reproduce_bit_for_bit(tmp_path):
    trip = write_trip_csv(str(tmp_path / "trip.csv"), labels=("A", "B", "C", "D"),
                          rows_per_label=150, seed=14)
    failures = []
    config = pipeline.RunConfig(
        input=trip,
        feature_mode="correlation-ranked",
        feature_count=3,
        window_length=20,
        window_stride=5,
        kinds=("zeror", "knn", "reptree"),
        folds=5,
        seed=3,
        out_dir=str(tmp_path / "run_a"),
    )
    bundle_a = pipeline.run_pipeline(config)
    bytes_a = (tmp_path / "run_a" / "report.json").read_bytes()

    # same config again
    bundle_b = pipeline.run_pipeline(
        pipeline.RunConfig.from_dict({**config.to_dict(), "out_dir": str(tmp_path / "run_b")})
    )
    bytes_b = (tmp_path / "run_b" / "report.json").read_bytes()
    if json.dumps({**bundle_a, "config": None}, sort_keys=True) != json.dumps(
        {**bundle_b, "config": None}, sort_keys=True
    ):
        failures.append("in-memory bundles differ")
    stripped_a = bytes_a.replace(b"run_a", b"out")
    stripped_b = bytes_b.replace(b"run_b", b"out")
    if stripped_a != stripped_b:
        failures.append("report files differ beyond the out_dir path")

    # the embedded config reproduces its own report byte for byte
    embedded = pipeline.RunConfig.from_dict(bundle_a["config"])
    pipeline.run_pipeline(embedded)
    bytes_again = (tmp_path / "run_a" / "report.json").read_bytes()
    if bytes_again != bytes_a:
        failures.append("embedded config did not reproduce the original report")
    _verdict(14, failures)
