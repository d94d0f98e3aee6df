"""IoT device models.

Devices are the leaves of the SWAMP pipeline: they sample the agro-physics
substrate (or accept actuation commands that feed back into it) and speak
MQTT over constrained field radio.  Each device owns

* a sampling/reporting interval, driven by a sweep group (see ``sweep.py``),
* a battery and per-operation energy accounting (radio TX dominates, which
  is why the paper insists security mechanisms be energy-efficient — E13),
* failure and tamper hooks used by the dependability and attack layers.

Pilots enroll their devices in a per-farm :class:`SweepScheduler`, where
one kernel event sweeps every device sharing a report interval; a device
started without one samples on a :class:`SweepGroup` of its own.
"""

from repro.devices.base import Device, DeviceConfig
from repro.devices.battery import Battery
from repro.devices.codec import decode_payload, encode_payload
from repro.devices.sensors import SoilMoistureProbe, WaterFlowMeter, WeatherStation
from repro.devices.actuators import CenterPivot, Pump, Valve
from repro.devices.drone import Drone
from repro.devices.sweep import SweepGroup, SweepScheduler

__all__ = [
    "Battery",
    "CenterPivot",
    "Device",
    "DeviceConfig",
    "Drone",
    "Pump",
    "SoilMoistureProbe",
    "SweepGroup",
    "SweepScheduler",
    "Valve",
    "WaterFlowMeter",
    "WeatherStation",
    "decode_payload",
    "encode_payload",
]
