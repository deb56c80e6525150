"""Seeded synthetic trip log shaped like the OcsLab driving export.

The log has the 15 fixed benchmark channels plus 36 extra channels (51 in
all), ten drivers ``A``-``J`` whose trips are contiguous, and the
``Time(s)``/``PathOrder`` bookkeeping columns.  Each channel is a
per-driver mean plus a per-trip random walk plus white noise.  The extra
channels mimic what feature selection must sort out: constant channels,
exact copies and near copies of fixed channels, weakly informative
channels and pure noise.

The same ``(seed, rows)`` always gives the same bytes.
"""

from __future__ import annotations

import numpy as np

from driverid.features import DEFAULT_FIXED_FEATURES

DRIVERS = tuple("ABCDEFGHIJ")
#: Share of the log each driver's trip takes (majority share 14 %).
DRIVER_SHARES = (0.14, 0.11, 0.09, 0.10, 0.08, 0.12, 0.09, 0.10, 0.08, 0.09)

# Extra channels by role.  Copies name the fixed channel they duplicate.
CONSTANT = (
    "Inhibition of engine fuel cut off",
    "Torque scaling factor",
    "Standard torque ratio",
    "Requested spark retard angle from TCU",
    "Glow plug control request",
    "Clutch operation acknowledge",
)
EXACT_COPY = {
    "Flywheel torque": "Engine torque",
    "Filtered accelerator pedal value": "Accelerator pedal value",
    "Wheel velocity rear right-hand": "Wheel velocity rear left-hand",
}
NEAR_COPY = {
    "Engine torque after correction": "Engine torque",
    "Absolute throttle position": "Accelerator pedal value",
    "Torque converter turbine speed": "Torque converter speed",
}
WEAK = (
    "Engine speed",
    "Vehicle speed",
    "Throttle position signal",
    "Short term fuel trim bank1",
    "Engine soaking time",
    "Fuel pressure",
    "Current spark timing",
    "Engine idle target speed",
    "Minimum indicated engine torque",
    "TCU requests engine torque limit",
    "TCU requested engine RPM increase",
    "Target engine speed in lock-up module",
)
NOISE = (
    "Engine in fuel cut off",
    "Current gear",
    "Converter clutch",
    "Gear selection",
    "Acceleration speed longitudinal",
    "Brake switch",
    "Master cylinder pressure",
    "Calculated road gradient",
    "Acceleration speed lateral",
    "Steering wheel speed",
    "Steering wheel angle",
    "Flywheel torque after interventions",
)
EXTRA_CHANNELS = (*CONSTANT, *EXACT_COPY, *NEAR_COPY, *WEAK, *NOISE)
CHANNELS = (*DEFAULT_FIXED_FEATURES, *EXTRA_CHANNELS)
HEADER = (*CHANNELS, "Time(s)", "PathOrder", "Class")


def driver_rows(rows: int) -> list[int]:
    """Rows per driver for a log of about ``rows`` rows (at least 100 each)."""
    return [max(100, round(rows * share)) for share in DRIVER_SHARES]


#: Seed of the drivers' fixed traits (channel means, scales, offsets).
PROFILE_SEED = 20220721


def _signal(profile, rng, counts, n_channels, separation):
    """Per-driver mean + per-trip random walk + unit noise, (sum(counts), c).

    The means come from ``profile``, the walk and noise from ``rng``.  The
    walk's step shrinks with the trip length, so its spread by the end of a
    trip is about one noise unit whatever the log size.
    """
    blocks = []
    for n in counts:
        mean = profile.normal(0.0, separation, size=n_channels)
        steps = rng.normal(0.0, 1.0 / np.sqrt(n), size=(n, n_channels))
        blocks.append(mean + np.cumsum(steps, axis=0) + rng.normal(0.0, 1.0, size=(n, n_channels)))
    return np.concatenate(blocks)


def generate(seed: int, rows: int) -> tuple[np.ndarray, list[str]]:
    """Channel matrix (in :data:`CHANNELS` order) and per-row labels.

    The drivers' traits are the same for every seed; the seed draws a fresh
    trip for each of them.  So the work a log takes to process barely
    depends on the seed.
    """
    profile = np.random.default_rng(PROFILE_SEED)
    rng = np.random.default_rng(seed)
    counts = driver_rows(rows)
    n = sum(counts)
    column = {}
    for names, separation in ((DEFAULT_FIXED_FEATURES, 1.5), (WEAK, 0.3)):
        block = _signal(profile, rng, counts, len(names), separation)
        column.update({name: block[:, j] for j, name in enumerate(names)})
    column.update({name: rng.normal(0.0, 1.0, size=n) for name in NOISE})
    for name, source in NEAR_COPY.items():
        column[name] = column[source] + rng.normal(0.0, 0.45, size=n)
    # Channel-specific offset and scale so the columns do not share a range.
    for name in column:
        column[name] = column[name] * profile.uniform(0.5, 20.0) + profile.uniform(-50.0, 150.0)
    for name, source in EXACT_COPY.items():
        column[name] = column[source]
    for name in CONSTANT:
        column[name] = np.full(n, float(profile.integers(0, 5)))
    values = np.stack([column[name] for name in CHANNELS], axis=1)
    labels = [d for d, c in zip(DRIVERS, counts) for _ in range(c)]
    return values, labels


def write_log(path: str, seed: int, rows: int) -> int:
    """Write the log as CSV; returns the number of data rows."""
    values, labels = generate(seed, rows)
    counts = driver_rows(rows)
    # Elapsed seconds restart with each trip; the route has two legs.
    elapsed = np.concatenate([np.arange(1, c + 1) for c in counts]).tolist()
    leg = np.concatenate([1 + (np.arange(c) >= c // 2) for c in counts]).tolist()
    line = ",".join(["%.4f"] * len(CHANNELS)) + ",%d,%d,%s\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(HEADER) + "\n")
        fh.writelines(
            line % (*row, t, p, label)
            for row, t, p, label in zip(values.tolist(), elapsed, leg, labels)
        )
    return len(labels)
