"""Decode a handful of OBD-II service-01 frames and print the readings.

Run with:  python3 demos/decode_pids.py
"""

from driverid import obd

SERVICE = 0x01

# (pid, payload) pairs as they would arrive from an ELM327-style adapter,
# minus the 41 <pid> echo prefix.
FRAMES = [
    (0x0C, bytes([0x1A, 0xF8])),        # engine speed
    (0x0D, bytes([0x55])),              # vehicle speed
    (0x05, bytes([0x7B])),              # coolant temperature
    (0x04, bytes([0x80])),              # calculated load
    (0x11, bytes([0x3D])),              # throttle position
    (0x0F, bytes([0x46])),              # intake air temperature
    (0x10, bytes([0x03, 0xE8])),        # MAF air flow
    (0x03, bytes([0x02, 0x00])),        # fuel system status (bitfield)
]


def main():
    print("PID   reading")
    print("---   -------")
    for pid, payload in FRAMES:
        reading = obd.decode(SERVICE, pid, payload)
        print(f"0x{pid:02X}  {obd.format_reading(reading)}")

    # Bitfield PIDs decode to structured values rather than scalars.
    status = obd.decode(SERVICE, 0x03, bytes([0x04, 0x00]))
    print()
    print("fuel system detail:", status.value)

    # List every PID the registry knows how to decode.
    print()
    print(f"{len(obd.REGISTRY)} PIDs in the registry:")
    for (service, pid), spec in sorted(obd.REGISTRY.items()):
        print(f"  {service:02X}/{pid:02X}  {spec.description}")


if __name__ == "__main__":
    main()
