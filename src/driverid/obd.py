"""OBD-II service-01 PID codec (SAE J1979).

Raw response payloads are turned into physical sensor values through
``REGISTRY``, a read-only table of PID descriptors keyed by (service, pid).
Each descriptor is checked when it is built, so the table is checked when
this module is imported: its scaling must name one of the formulas below,
and an affine scaling must stay inside [min, max] over every payload.

Most service-01 scalings are affine maps of the big-endian payload integer
(``value = raw * scale + offset``).  Status PIDs (fuel system status,
multi-sensor temperature banks) decode to structured dicts instead of a
single number.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Union

from .errors import DriverIdError, PayloadLengthMismatch, UnknownPid

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
        bounded = self.min_value is not None
        if bounded != (self.max_value is not None) or (
            bounded and not self.min_value < self.max_value
        ):
            raise DriverIdError(
                f"PID {self.pid:#04x}: min {self.min_value} must be below max {self.max_value}"
            )
        scaling = _SCALINGS.get(self.scaling)
        if scaling is None:
            raise DriverIdError(f"PID {self.pid:#04x}: unknown scaling id {self.scaling!r}")
        if bounded and isinstance(scaling, _Affine):
            # Affine maps are monotone in the payload integer, so the extremes
            # of the formula are reached at the all-zeros and all-0xFF payloads.
            ends = (bytes(self.data_bytes), b"\xff" * self.data_bytes)
            lo, hi = sorted(scaling.decode(payload) for payload in ends)
            if lo < self.min_value or hi > self.max_value:
                raise DriverIdError(
                    f"PID {self.pid:#04x}: scaling output [{lo}, {hi}] escapes "
                    f"range [{self.min_value}, {self.max_value}]"
                )


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
    """value = int.from_bytes(payload) * num / den + offset.

    The scale is kept as a rational so boundary payloads decode exactly
    (e.g. 0xFF * 100 / 255 == 100.0, which 0xFF * (100/255) is not).
    """

    def __init__(self, num: float, den: float = 1.0, offset: float = 0.0):
        self.num = num
        self.den = den
        self.offset = offset

    def decode(self, payload: bytes) -> float:
        return int.from_bytes(payload, "big") * self.num / self.den + self.offset


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

#: The registered PIDs, {(service, pid): descriptor}.  Fields: service, pid,
#: data_bytes (payload length of a response), description, scaling id,
#: physical min and max (None for status PIDs), unit.
REGISTRY: Mapping[tuple[int, int], PidDescriptor] = MappingProxyType({
    (d.service, d.pid): d for d in (
        PidDescriptor(0x01, 0x03, 2, "Fuel system status", "fuel_system_status", None, None, ""),
        PidDescriptor(0x01, 0x04, 1, "Calculated engine load", "percent_of_255", 0.0, 100.0, "%"),
        PidDescriptor(0x01, 0x05, 1, "Engine coolant temperature", "temp_minus_40",
                      -40.0, 215.0, "degC"),
        PidDescriptor(0x01, 0x0B, 1, "Intake manifold absolute pressure", "identity",
                      0.0, 255.0, "kPa"),
        PidDescriptor(0x01, 0x0C, 2, "Engine speed", "quarter_rpm", 0.0, 16383.75, "rpm"),
        PidDescriptor(0x01, 0x0D, 1, "Vehicle speed", "identity", 0.0, 255.0, "km/h"),
        PidDescriptor(0x01, 0x0F, 1, "Intake air temperature", "temp_minus_40",
                      -40.0, 215.0, "degC"),
        PidDescriptor(0x01, 0x10, 2, "Mass air flow rate", "hundredth_u16", 0.0, 655.35, "g/s"),
        PidDescriptor(0x01, 0x11, 1, "Throttle position", "percent_of_255", 0.0, 100.0, "%"),
        PidDescriptor(0x01, 0x2F, 1, "Fuel tank level input", "percent_of_255", 0.0, 100.0, "%"),
        PidDescriptor(0x01, 0x68, 3, "Intake air temperature sensors", "iat_sensor_bank",
                      -40.0, 215.0, "degC"),
    )
})


def lookup(service: int, pid: int) -> PidDescriptor:
    """Descriptor for (service, pid), raising UnknownPid when absent."""
    try:
        return REGISTRY[service, pid]
    except KeyError:
        raise UnknownPid(f"service {service:#04x} PID {pid:#04x} is not registered") from None


def decode(service: int, pid: int, payload: bytes | bytearray | list[int]) -> PidReading:
    """Decode a raw service-01 payload into a physical reading.

    Pure function of its inputs: the same payload always yields the same
    reading.  Raises UnknownPid for unregistered pairs, PayloadLengthMismatch
    for truncated or overlong frames and DriverIdError for a payload that is
    not a sequence of byte values 0-255 (a string or a bare int is not).
    """
    desc = lookup(service, pid)
    try:
        raw = None if isinstance(payload, (str, int)) else bytes(payload)
    except (TypeError, ValueError):
        raw = None
    if raw is None:
        raise DriverIdError(f"payload {payload!r} is not a sequence of byte values 0-255")
    if len(raw) != desc.data_bytes:
        raise PayloadLengthMismatch(
            f"PID {pid:#04x} expects {desc.data_bytes} data byte(s), got {len(raw)}"
        )
    return PidReading(descriptor=desc, raw=raw, value=_SCALINGS[desc.scaling].decode(raw))


def format_reading(reading: PidReading) -> str:
    """Human-readable one-liner, e.g. '1726.0 rpm' or a status summary."""
    if isinstance(reading.value, dict):
        parts = ", ".join(f"{k}={v}" for k, v in reading.value.items())
        return f"{reading.descriptor.description}: {parts}"
    text = f"{reading.value:g}"
    return f"{text} {reading.unit}".strip()
