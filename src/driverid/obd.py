"""OBD-II service-01 PID codec (SAE J1979).

Raw response payloads are turned into physical sensor values through a
registry of PID descriptors.  The registry ships as a CSV data file next to
this module (``data/obd_pids.csv``) so new PIDs need no code change; each
row names one of the scaling formulas registered here.

Most service-01 scalings are affine maps of the big-endian payload integer
(``value = raw * scale + offset``).  Status PIDs (fuel system status,
multi-sensor temperature banks) decode to structured dicts instead of a
single number.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass
from importlib import resources
from typing import Mapping, Union

from .errors import DriverIdError, PayloadLengthMismatch, UnknownPid
from .ingest import _text_stream

# Diagnostic services accepted by the registry.  Only service 01 rows carry
# decoders; the others are listed so their codes validate.
SERVICES: Mapping[int, str] = {
    0x01: "Show current data",
    0x02: "Show freeze frame data",
    0x09: "Request vehicle information",
    0x0A: "Permanent diagnostic trouble codes",
}

DecodedValue = Union[float, dict]


@dataclass(frozen=True)
class PidDescriptor:
    """Static metadata for one (service, pid) pair."""

    service: int
    pid: int
    data_bytes: int
    description: str
    scaling: str
    min_value: float | None
    max_value: float | None
    unit: str

    def __post_init__(self) -> None:
        if self.data_bytes < 1:
            raise DriverIdError(f"PID {self.pid:#04x}: data_bytes must be >= 1")
        if self.min_value is not None and self.max_value is not None:
            if not self.min_value < self.max_value:
                raise DriverIdError(
                    f"PID {self.pid:#04x}: min {self.min_value} must be below max {self.max_value}"
                )
        if self.scaling not in _SCALINGS:
            raise DriverIdError(f"PID {self.pid:#04x}: unknown scaling id {self.scaling!r}")


@dataclass(frozen=True)
class PidReading:
    """One decoded payload: the descriptor, the raw bytes, the physical value."""

    descriptor: PidDescriptor
    raw: bytes
    value: DecodedValue

    @property
    def unit(self) -> str:
        return self.descriptor.unit


class _Affine:
    """value = int.from_bytes(payload) * num / den + offset; invertible.

    The scale is kept as a rational so boundary payloads decode exactly
    (e.g. 0xFF * 100 / 255 == 100.0, which 0xFF * (100/255) is not).
    """

    def __init__(self, num: float, den: float = 1.0, offset: float = 0.0):
        self.num = num
        self.den = den
        self.offset = offset

    def decode(self, payload: bytes) -> float:
        return int.from_bytes(payload, "big") * self.num / self.den + self.offset

    def encode(self, value: float, n_bytes: int) -> bytes:
        raw = round((value - self.offset) * self.den / self.num)
        return int(raw).to_bytes(n_bytes, "big")


_FUEL_SYSTEM_STATES = {
    0x00: None,  # bank not used
    0x01: "open-loop-warmup",
    0x02: "closed-loop",
    0x04: "open-loop-load",
    0x08: "open-loop-fault",
    0x10: "closed-loop-fault",
}


class _FuelSystemStatus:
    """Two one-hot status bytes, one per fuel system bank."""

    def decode(self, payload: bytes) -> dict:
        return {
            "bank1": _FUEL_SYSTEM_STATES.get(payload[0], "unknown"),
            "bank2": _FUEL_SYSTEM_STATES.get(payload[1], "unknown"),
        }


class _IatSensorBank:
    """Support bitfield followed by per-sensor temperatures (byte - 40)."""

    def decode(self, payload: bytes) -> dict:
        support = payload[0]
        temps = [b - 40 for b in payload[1:]]
        return {
            "supported": [bool(support >> i & 1) for i in range(len(temps))],
            "temperatures_c": temps,
        }


_SCALINGS: Mapping[str, object] = {
    "percent_of_255": _Affine(100.0, 255.0),
    "quarter_rpm": _Affine(1.0, 4.0),
    "identity": _Affine(1.0),
    "temp_minus_40": _Affine(1.0, offset=-40.0),
    "hundredth_u16": _Affine(1.0, 100.0),
    "fuel_system_status": _FuelSystemStatus(),
    "iat_sensor_bank": _IatSensorBank(),
}


def load_registry(source=None) -> dict[tuple[int, int], PidDescriptor]:
    """Parse a PID registry file into {(service, pid): descriptor}.

    ``source`` may be a path or an open text stream; by default the CSV
    shipped with the package is used.  Each descriptor is validated: the
    affine scalings must stay inside [min, max] over all possible payloads.
    """
    if source is None:
        text = resources.files(__package__).joinpath("data/obd_pids.csv").read_text("utf-8")
        source = io.StringIO(text)

    registry: dict[tuple[int, int], PidDescriptor] = {}
    with _text_stream(source, "r") as stream:
        rows = csv.reader(line for line in stream if not line.startswith("#"))
        header = next(rows, None)
        if header != ["service", "pid", "data_bytes", "description", "scaling", "min", "max", "unit"]:
            raise DriverIdError(f"unrecognized PID registry header: {header}")
        for row in rows:
            if not row:
                continue
            service = int(row[0], 16)
            pid = int(row[1], 16)
            if service not in SERVICES:
                raise DriverIdError(f"registry row {row!r}: unknown service {service:#04x}")
            desc = PidDescriptor(
                service=service,
                pid=pid,
                data_bytes=int(row[2]),
                description=row[3],
                scaling=row[4],
                min_value=float(row[5]) if row[5] else None,
                max_value=float(row[6]) if row[6] else None,
                unit=row[7],
            )
            _check_range(desc)
            registry[service, pid] = desc
    return registry


def _check_range(desc: PidDescriptor) -> None:
    # Affine maps are monotone in the payload integer, so the extremes of the
    # formula are reached at the all-zeros and all-0xFF payloads.
    scaling = _SCALINGS[desc.scaling]
    if not isinstance(scaling, _Affine) or desc.min_value is None:
        return
    lo = scaling.decode(bytes(desc.data_bytes))
    hi = scaling.decode(b"\xff" * desc.data_bytes)
    lo, hi = min(lo, hi), max(lo, hi)
    if lo < desc.min_value or hi > desc.max_value:
        raise DriverIdError(
            f"PID {desc.pid:#04x}: scaling output [{lo}, {hi}] escapes "
            f"range [{desc.min_value}, {desc.max_value}]"
        )


@functools.cache
def _packaged_registry() -> dict[tuple[int, int], PidDescriptor]:
    """The packaged PID registry, loaded on first use; shared, so read only."""
    return load_registry()


def lookup(service: int, pid: int) -> PidDescriptor:
    """Descriptor for (service, pid), raising UnknownPid when absent."""
    try:
        return _packaged_registry()[service, pid]
    except KeyError:
        raise UnknownPid(f"service {service:#04x} PID {pid:#04x} is not registered") from None


def decode(service: int, pid: int, payload: bytes | bytearray | list[int]) -> PidReading:
    """Decode a raw service-01 payload into a physical reading.

    Pure function of its inputs: the same payload always yields the same
    reading.  Raises UnknownPid for unregistered pairs and
    PayloadLengthMismatch for truncated or overlong frames.
    """
    desc = lookup(service, pid)
    raw = bytes(payload)
    if len(raw) != desc.data_bytes:
        raise PayloadLengthMismatch(
            f"PID {pid:#04x} expects {desc.data_bytes} data byte(s), got {len(raw)}"
        )
    value = _SCALINGS[desc.scaling].decode(raw)
    if isinstance(value, float) and desc.min_value is not None:
        # guaranteed by _check_range; assert the contract anyway
        assert desc.min_value <= value <= desc.max_value
    return PidReading(descriptor=desc, raw=raw, value=value)


def encode(descriptor: PidDescriptor, value: float) -> bytes:
    """Inverse of decode for affine scalings (round-trip checking only).

    Structured scalings (status bitfields) have no inverse and raise.
    """
    scaling = _SCALINGS[descriptor.scaling]
    if not isinstance(scaling, _Affine):
        raise DriverIdError(f"scaling {descriptor.scaling!r} is not invertible")
    return scaling.encode(value, descriptor.data_bytes)


def format_reading(reading: PidReading) -> str:
    """Human-readable one-liner, e.g. '1726.0 rpm' or a status summary."""
    if isinstance(reading.value, dict):
        parts = ", ".join(f"{k}={v}" for k, v in reading.value.items())
        return f"{reading.descriptor.description}: {parts}"
    text = f"{reading.value:g}"
    return f"{text} {reading.unit}".strip()
