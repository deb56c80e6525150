"""Shared fixtures: synthetic trip logs and the (optional) benchmark dataset.

The real 10-driver dataset is looked up via $OCSLAB_DRIVING_CSV or
data/driving_dataset.csv; dataset-dependent tests skip cleanly when it is
absent.  Everything else runs on synthetic data generated here.
"""

import os
import time
import tracemalloc

import numpy as np
import pytest

from driverid import pipeline
from driverid.ingest import load_dataset


def write_trip_csv(path, *, labels=("A", "B", "C"), rows_per_label=120,
                   channels=("Fuel_consumption", "Engine_speed", "Vehicle_speed"),
                   seed=7, separation=3.0, bookkeeping=True):
    """Write a synthetic trip log shaped like the real exports.

    Each driver's channels are Gaussian around a driver-specific mean so
    classifiers have something to find.  Rows are grouped by driver, which
    matches the real logs (one driver's trip is contiguous in time).
    """
    rng = np.random.default_rng(seed)
    header = list(channels)
    if bookkeeping:
        header += ["Time(s)", "PathOrder"]
    header += ["Class"]
    t = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for gap, label in enumerate(labels):
            mu = separation * gap
            for _ in range(rows_per_label):
                vals = rng.normal(mu, 1.0, size=len(channels))
                cells = [f"{v:.6f}" for v in vals]
                if bookkeeping:
                    cells += [str(t), "1"]
                cells += [label]
                fh.write(",".join(cells) + "\n")
                t += 1
    return path


def mixed_trip_text(*, labels=("A", "B", "C"), rows_per_label=40, n_channels=4,
                    mixed_rows=12, seed=3):
    """A multi-driver trip log as CSV text, with full-precision cells.

    Each driver's rows are contiguous, then a stretch of ``mixed_rows`` rows
    alternates between the first two drivers, so windows over it straddle a
    driver change.  The bookkeeping columns sit between the channels.
    """
    rng = np.random.default_rng(seed)
    names = [f"ch{j}" for j in range(n_channels)]
    header = names[:1] + ["Time(s)"] + names[1:] + ["PathOrder", "Class"]
    row_labels = [lab for lab in labels for _ in range(rows_per_label)]
    row_labels += [labels[i % 2] for i in range(mixed_rows)]
    lines = [",".join(header)]
    for t, lab in enumerate(row_labels):
        values = rng.normal(labels.index(lab), 1.0, size=n_channels)
        vals = [repr(v) for v in values.tolist()]
        lines.append(",".join(vals[:1] + [str(t)] + vals[1:] + ["1", lab]))
    return "\n".join(lines) + "\n"


def traced_peak(fn):
    """``(fn(), peak)``: the result and the most bytes that tracemalloc saw
    allocated at once while ``fn`` ran, above what was allocated before."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak


@pytest.fixture
def trip_csv(tmp_path):
    return write_trip_csv(str(tmp_path / "trip.csv"))


@pytest.fixture
def trip_dataset(trip_csv):
    return load_dataset(trip_csv)


# -- real-dataset gate ------------------------------------------------------

def dataset_path_or_none():
    path = pipeline.default_dataset_path()
    return path if os.path.exists(path) else None


requires_dataset = pytest.mark.skipif(
    dataset_path_or_none() is None,
    reason="benchmark dataset not present (set OCSLAB_DRIVING_CSV or put it "
    "at data/driving_dataset.csv)",
)


@pytest.fixture(scope="session")
def dataset_path():
    path = dataset_path_or_none()
    if path is None:
        pytest.skip("benchmark dataset not present")
    return path


@pytest.fixture(scope="session")
def ocslab_dataset(dataset_path):
    return load_dataset(dataset_path)


def _timed_run(config):
    start = time.monotonic()
    bundle = pipeline.run_pipeline(config)
    return bundle, time.monotonic() - start


@pytest.fixture(scope="session")
def table6_run(dataset_path):
    """(report bundle, wall seconds) for the two-driver preset."""
    return _timed_run(pipeline.preset_config("table6", dataset_path))


@pytest.fixture(scope="session")
def table7_run(dataset_path):
    """(report bundle, wall seconds) for the ten-driver preset."""
    return _timed_run(pipeline.preset_config("table7", dataset_path))


@pytest.fixture(scope="session")
def table6_matrix(dataset_path):
    """Windowed feature matrix for the two-driver preset (for sweeps)."""
    config = pipeline.preset_config("table6", dataset_path)
    _, _, matrix, _ = pipeline.prepare_matrix(config)
    return matrix
