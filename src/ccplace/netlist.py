"""Netlist model: matched devices, their terminal nets, and the routed nets."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property


class NetlistError(ValueError):
    """Raised when a netlist or netlist file fails validation."""


@dataclass(frozen=True)
class DeviceSpec:
    """One matched device, realised as ``unit_count`` identical unit transistors.

    ``source_net`` and ``drain_net`` are the diffusion terminals.  Two
    horizontally adjacent units can share a diffusion region only when some
    flip orientation brings equal nets into contact.
    """

    name: str
    unit_count: int
    gate_net: str
    source_net: str
    drain_net: str

    def __post_init__(self) -> None:
        if not self.name:
            raise NetlistError("device name must be non-empty")
        if not isinstance(self.unit_count, int) or self.unit_count < 1:
            raise NetlistError(
                f"device {self.name!r}: unit_count must be a positive integer, got {self.unit_count!r}"
            )
        for part, net in (("gate", self.gate_net), ("source", self.source_net), ("drain", self.drain_net)):
            if not net:
                raise NetlistError(f"device {self.name!r}: {part} net must be non-empty")

    @property
    def diffusion_nets(self) -> frozenset[str]:
        return frozenset((self.source_net, self.drain_net))


@dataclass(frozen=True)
class Netlist:
    """Devices plus the nets whose wirelength the routing model estimates.

    Each entry of ``route_nets`` is ``(net_label, member_device_names)``; the
    pins of a net are the grid positions of every unit of its member devices.
    """

    devices: tuple[DeviceSpec, ...]
    route_nets: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def __post_init__(self) -> None:
        if not self.devices:
            raise NetlistError("no devices")
        names = [d.name for d in self.devices]
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise NetlistError(f"duplicate device name {dup!r}")
        known = set(names)
        for net, members in self.route_nets:
            if not net:
                raise NetlistError("route net label must be non-empty")
            for member in members:
                if member not in known:
                    raise NetlistError(f"route net {net!r} references unknown device {member!r}")

    @cached_property
    def diffusion_nets(self) -> dict[str, frozenset[str]]:
        """Each device name's ``DeviceSpec.diffusion_nets``, built once per
        netlist; treat it as read-only."""
        return {d.name: d.diffusion_nets for d in self.devices}

    @property
    def total_units(self) -> int:
        return sum(d.unit_count for d in self.devices)

    def device(self, name: str) -> DeviceSpec:
        for d in self.devices:
            if d.name == name:
                return d
        raise KeyError(name)


def parse_netlist(text: str) -> Netlist:
    """Parse the JSON netlist format; diagnostics name the offending field.

    Expected shape::

        {"devices": [{"name": "M1", "units": 4, "gate": "G", "source": "S", "drain": "D1"}, ...],
         "route_nets": [{"net": "G", "members": ["M1", "M2"]}, ...],
         "grid": {"rows": 2, "cols": 8}}          # optional, see parse_grid()
    """
    doc = _load_document(text)
    raw_devices = doc.get("devices")
    if raw_devices is None or raw_devices == []:
        raise NetlistError("no devices")
    if not isinstance(raw_devices, list):
        raise NetlistError("devices: must be a list")
    devices = []
    for i, entry in enumerate(raw_devices):
        where = f"devices[{i}]"
        if not isinstance(entry, dict):
            raise NetlistError(f"{where}: must be an object")
        for key in ("name", "units", "gate", "source", "drain"):
            if key not in entry:
                raise NetlistError(f"{where}: missing field {key!r}")
        name = entry["name"]
        units = entry["units"]
        if not isinstance(name, str) or not name:
            raise NetlistError(f"{where}.name: must be a non-empty string")
        if not isinstance(units, int) or isinstance(units, bool) or units < 1:
            raise NetlistError(f"{where}.units: must be a positive integer, got {units!r}")
        for key in ("gate", "source", "drain"):
            if not isinstance(entry[key], str) or not entry[key]:
                raise NetlistError(f"{where}.{key}: must be a non-empty string")
        devices.append(DeviceSpec(name, units, entry["gate"], entry["source"], entry["drain"]))

    nets = []
    raw_nets = doc.get("route_nets", [])
    if not isinstance(raw_nets, list):
        raise NetlistError("route_nets: must be a list")
    for i, entry in enumerate(raw_nets):
        where = f"route_nets[{i}]"
        if not isinstance(entry, dict):
            raise NetlistError(f"{where}: must be an object")
        net = entry.get("net")
        members = entry.get("members")
        if not isinstance(net, str) or not net:
            raise NetlistError(f"{where}.net: must be a non-empty string")
        if not isinstance(members, list) or not all(isinstance(m, str) for m in members):
            raise NetlistError(f"{where}.members: must be a list of device names")
        nets.append((net, tuple(members)))

    return Netlist(tuple(devices), tuple(nets))


def parse_grid(text: str) -> tuple[int, int] | None:
    """Return the optional (rows, cols) carried by a netlist file, if any."""
    doc = _load_document(text)
    grid = doc.get("grid")
    if grid is None:
        return None
    if not isinstance(grid, dict):
        raise NetlistError("grid: must be an object with rows and cols")
    rows = grid.get("rows")
    cols = grid.get("cols")
    for key, value in (("rows", rows), ("cols", cols)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise NetlistError(f"grid.{key}: must be a positive integer, got {value!r}")
    return rows, cols


def _load_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetlistError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise NetlistError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise NetlistError("top level must be an object")
    return doc
