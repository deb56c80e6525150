"""OBD-II payload decoding: registry, scalings, framing errors."""

import io

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


def test_load_registry_returns_a_fresh_table():
    table = obd.load_registry()
    table.clear()
    assert obd.lookup(0x01, 0x0D).pid == 0x0D  # packaged table unharmed


def test_load_registry_rejects_bad_header():
    bad = io.StringIO("service,pid,bytes\n01,0C,2\n")
    with pytest.raises(DriverIdError):
        obd.load_registry(bad)


def test_load_registry_rejects_out_of_range_scaling():
    # claims max 100 for a scaling that reaches 255
    bad = io.StringIO(
        "service,pid,data_bytes,description,scaling,min,max,unit\n"
        "01,0D,1,Vehicle speed,identity,0,100,km/h\n"
    )
    with pytest.raises(DriverIdError):
        obd.load_registry(bad)


def test_load_registry_rejects_unknown_scaling_id():
    bad = io.StringIO(
        "service,pid,data_bytes,description,scaling,min,max,unit\n"
        "01,0D,1,Vehicle speed,cubic,0,255,km/h\n"
    )
    with pytest.raises(DriverIdError):
        obd.load_registry(bad)


@pytest.mark.parametrize("row", [
    "zz,0D,1,Vehicle speed,identity,0,255,km/h",  # service is not hex
    "01,0D,1",  # three of eight fields
])
def test_load_registry_rejects_malformed_rows(row):
    bad = io.StringIO("service,pid,data_bytes,description,scaling,min,max,unit\n" + row + "\n")
    with pytest.raises(DriverIdError, match="PID registry"):
        obd.load_registry(bad)
