"""OBD-II payload decoding: registry, scalings, framing errors."""

import pytest

from driverid import obd
from driverid.errors import DriverIdError, PayloadLengthMismatch, UnknownPid


def test_registry_has_service_01_entries():
    desc = obd.lookup(0x01, 0x0C)
    assert desc.service == 0x01
    assert desc.pid == 0x0C
    assert desc.data_bytes == 2
    assert desc.unit == "rpm"


def test_engine_rpm_quarter_scaling():
    # (256*A + B) / 4
    assert obd.decode(0x01, 0x0C, bytes([0x1A, 0xF8])).value == 1726.0
    assert obd.decode(0x01, 0x0C, bytes([0x00, 0x00])).value == 0.0
    assert obd.decode(0x01, 0x0C, bytes([0xFF, 0xFF])).value == 16383.75


def test_vehicle_speed_is_identity():
    assert obd.decode(0x01, 0x0D, bytes([0x00])).value == 0.0
    assert obd.decode(0x01, 0x0D, bytes([0xFF])).value == 255.0
    assert obd.decode(0x01, 0x0D, bytes([0x4B])).value == 75.0


def test_load_and_throttle_percent_of_255():
    assert obd.decode(0x01, 0x04, bytes([0x00])).value == 0.0
    assert obd.decode(0x01, 0x04, bytes([0xFF])).value == 100.0
    assert obd.decode(0x01, 0x11, bytes([0xFF])).value == 100.0
    # halfway byte is close to 50 but not exactly 50
    assert abs(obd.decode(0x01, 0x04, bytes([0x80])).value - 50.196) < 1e-3


def test_temperature_offset():
    assert obd.decode(0x01, 0x05, bytes([0x00])).value == -40.0
    assert obd.decode(0x01, 0x05, bytes([0xFF])).value == 215.0
    assert obd.decode(0x01, 0x0F, bytes([0x28])).value == 0.0


def test_mass_air_flow_hundredths():
    assert obd.decode(0x01, 0x10, bytes([0xFF, 0xFF])).value == 655.35
    assert obd.decode(0x01, 0x10, bytes([0x00, 0x64])).value == 1.0


def test_fuel_system_status_names_both_banks():
    value = obd.decode(0x01, 0x03, bytes([0x02, 0x00])).value
    assert value == {"bank1": "closed-loop", "bank2": None}
    # a byte with several bits set is not a valid one-hot state
    value = obd.decode(0x01, 0x03, bytes([0x03, 0x01])).value
    assert value["bank1"] == "unknown"
    assert value["bank2"] == "open-loop-warmup"


def test_iat_sensor_bank_support_bits():
    # support byte 0b101 -> sensors 1 and 3 flagged, temps are byte - 40
    value = obd.decode(0x01, 0x68, bytes([0x05, 0x64, 0x28])).value
    assert value["supported"] == [True, False]
    assert value["temperatures_c"] == [60, 0]


def test_unknown_pid_raises():
    with pytest.raises(UnknownPid):
        obd.decode(0x01, 0xEE, b"\x00")
    with pytest.raises(UnknownPid):
        obd.lookup(0x09, 0x0C)


def test_wrong_payload_length_raises():
    with pytest.raises(PayloadLengthMismatch):
        obd.decode(0x01, 0x0C, b"\x0a")  # needs 2 bytes
    with pytest.raises(PayloadLengthMismatch):
        obd.decode(0x01, 0x0D, b"\x0a\x0b")  # needs 1


@pytest.mark.parametrize("payload", [[256, 0], [-1, 0], "ab", 2, [1.5, 2], None])
def test_payload_that_is_not_byte_values_raises_a_typed_error(payload):
    with pytest.raises(DriverIdError, match="not a sequence of byte values"):
        obd.decode(0x01, 0x0C, payload)
    assert obd.decode(0x01, 0x0C, [0x1A, 0xF8]).value == 1726.0


def test_format_reading_has_value_and_unit():
    text = obd.format_reading(obd.decode(0x01, 0x0C, bytes([0x1A, 0xF8])))
    assert "1726" in text
    assert "rpm" in text


@pytest.mark.parametrize("key", sorted(obd.REGISTRY), ids=lambda k: f"{k[0]:02X}-{k[1]:02X}")
def test_registry_rows_decode_their_extreme_payloads(key):
    # a typo in a row, such as a one-byte fuel status, fails here
    desc = obd.REGISTRY[key]
    assert obd.lookup(*key) is desc
    for byte in (0x00, 0xFF):
        value = obd.decode(*key, bytes([byte] * desc.data_bytes)).value
        assert isinstance(value, dict) or desc.min_value <= value <= desc.max_value


SPEED = dict(service=0x01, pid=0x0D, data_bytes=1, description="Vehicle speed",
             scaling="identity", min_value=0.0, max_value=255.0, unit="km/h")


@pytest.mark.parametrize("change", [
    {"scaling": "cubic"},
    {"max_value": 100.0},  # the identity scaling reaches 255
    {"min_value": 10.0},  # ... and 0
    {"data_bytes": 0},
    {"min_value": 255.0},
    {"min_value": 300.0},
    {"max_value": None},
], ids=["unknown-scaling", "out-of-range", "out-of-range-low", "no-data-bytes",
        "min-equals-max", "min-above-max", "min-without-max"])
def test_descriptor_is_checked_when_built(change):
    assert obd.PidDescriptor(**SPEED) == obd.lookup(0x01, 0x0D)
    with pytest.raises(DriverIdError, match="PID 0x0d"):
        obd.PidDescriptor(**{**SPEED, **change})


def test_registry_refuses_item_assignment():
    with pytest.raises(TypeError):
        obd.REGISTRY[0x01, 0x0D] = obd.lookup(0x01, 0x0C)
    assert obd.lookup(0x01, 0x0D).pid == 0x0D
