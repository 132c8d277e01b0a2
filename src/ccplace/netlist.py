"""Netlist model: matched devices, their terminal nets, and the routed nets.

Also the readers of ccplace's JSON input: ``netlist_from_dict`` reads the
netlist format, of a netlist file and of a report's ``netlist``, and
``load_json``, ``field``, ``entries`` and ``read_grid`` check every reader's
input.  Each ValueError they raise starts with the offending field's path;
the netlist-file readers raise it as a NetlistError.
"""

from __future__ import annotations

import json
import math
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
        if not (self.gate_net and self.source_net and self.drain_net):
            part = next(p for p in ("gate", "source", "drain") if not getattr(self, f"{p}_net"))
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
        # each message starts with the path of the offending field
        if not self.devices:
            raise NetlistError("devices: no devices")
        known = {d.name for d in self.devices}
        if len(known) != len(self.devices):
            names = [d.name for d in self.devices]
            i = next(i for i, n in enumerate(names) if n in names[:i])
            raise NetlistError(f"devices[{i}].name: duplicate device name {names[i]!r}")
        for i, (net, members) in enumerate(self.route_nets):
            if not net:
                raise NetlistError(f"route_nets[{i}].net: route net label must be non-empty")
            if not known.issuperset(members):
                j = next(j for j, m in enumerate(members) if m not in known)
                raise NetlistError(f"route_nets[{i}].members[{j}]: route net {net!r} "
                                   f"references unknown device {members[j]!r}")

    @cached_property
    def diffusion_nets(self) -> dict[str, frozenset[str]]:
        """Each device name's ``DeviceSpec.diffusion_nets``, built once per
        netlist; treat it as read-only."""
        return {d.name: d.diffusion_nets for d in self.devices}

    @property
    def total_units(self) -> int:
        return sum(d.unit_count for d in self.devices)


def netlist_to_dict(nl: Netlist) -> dict:
    """The netlist format of ``nl``; ``netlist_from_dict`` reads it back."""
    return {
        "devices": [
            {"name": d.name, "units": d.unit_count, "gate": d.gate_net,
             "source": d.source_net, "drain": d.drain_net}
            for d in nl.devices
        ],
        "route_nets": [{"net": net, "members": list(members)} for net, members in nl.route_nets],
    }


_NON_EMPTY = "a non-empty string"


def netlist_from_dict(doc: dict, where: str = "") -> Netlist:
    """Read the netlist format, from a netlist file or a report's ``netlist``.

    ``where`` is the path of ``doc`` in its document; a ValueError names the
    offending field under it.  Expected shape::

        {"devices": [{"name": "M1", "units": 4, "gate": "G", "source": "S", "drain": "D1"}, ...],
         "route_nets": [{"net": "G", "members": ["M1", "M2"]}, ...],   # optional
         "grid": {"rows": 2, "cols": 8}}          # optional, see read_grid()
    """
    devices = []
    for path, entry in entries(doc, "devices", where) if "devices" in doc else ():
        devices.append(DeviceSpec(field(entry, "name", path, str, _NON_EMPTY),
                                  field(entry, "units", path, int, "a positive integer", 1),
                                  field(entry, "gate", path, str, _NON_EMPTY),
                                  field(entry, "source", path, str, _NON_EMPTY),
                                  field(entry, "drain", path, str, _NON_EMPTY)))
    nets = []
    for path, entry in entries(doc, "route_nets", where) if "route_nets" in doc else ():
        members = field(entry, "members", path, list, "a list")
        if not all(isinstance(m, str) for m in members):
            raise ValueError(f"{field_name(path, 'members')}: must be a list of device names")
        nets.append((field(entry, "net", path, str, _NON_EMPTY), tuple(members)))
    try:
        return Netlist(tuple(devices), tuple(nets))
    except NetlistError as exc:  # no devices, a duplicate name or an unknown member
        raise ValueError(field_name(where, str(exc))) from None


def read_grid(doc: dict) -> tuple[int, int] | None:
    """The (rows, cols) of ``doc["grid"]``, or None when ``doc`` has none."""
    if doc.get("grid") is None:
        return None
    grid = field(doc, "grid", "", dict, "an object")
    return (field(grid, "rows", "grid", int, "a positive integer", 1),
            field(grid, "cols", "grid", int, "a positive integer", 1))


def parse_netlist(text: str) -> Netlist:
    """Read a netlist file; a NetlistError names the offending field."""
    return _from_netlist_file(netlist_from_dict, text)


def parse_grid(text: str) -> tuple[int, int] | None:
    """Return the optional (rows, cols) carried by a netlist file, if any."""
    return _from_netlist_file(read_grid, text)


def _from_netlist_file(read, text: str):
    try:
        return read(load_json(text))
    except ValueError as exc:
        raise NetlistError(str(exc)) from exc


# ---------------------------------------------------------------------------
# JSON input checks, shared by every reader; each ValueError names its field
# ---------------------------------------------------------------------------


def load_json(text: str) -> dict:
    """The JSON object that ``text`` holds."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise ValueError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("top level must be an object")
    return doc


def field_name(where: str | tuple, key: str | int) -> str:
    """The printed path of ``key``, a name or a list index, under ``where``.

    A path is its printed form (``""`` at the top level) or a ``(path, key)``
    pair, printed only when a message needs it, so that no string is built
    for a valid field.
    """
    if type(where) is tuple:
        where = field_name(*where)
    if type(key) is int:
        return f"{where}[{key}]"
    return f"{where}.{key}" if where else key


def field(doc: dict, key: str, where: str | tuple, kind, what: str, least: int | None = None):
    """``doc[key]``, checked to be a ``kind``; ``where`` is the path of ``doc``.

    A string must also be non-empty, a float finite (``json.loads`` reads NaN
    and Infinity) and, when ``least`` is given, an integer at least ``least``.
    """
    try:
        value = doc[key]
    except KeyError:
        raise ValueError(f"{field_name(where, key)}: missing field") from None
    cls = type(value)
    if cls is not kind and (cls is bool or not isinstance(value, kind)):
        raise ValueError(f"{field_name(where, key)}: must be {what}, got {cls.__name__}")
    if ((least is not None and value < least) or (cls is str and not value)
            or (cls is float and not math.isfinite(value))):
        raise ValueError(f"{field_name(where, key)}: must be {what}, got {value!r}")
    return value


def entries(doc: dict, key: str, where: str | tuple = ""):
    """Each object of the list ``doc[key]``, with its path."""
    path = (where, key)
    for i, entry in enumerate(field(doc, key, where, list, "a list")):
        if not isinstance(entry, dict):
            raise ValueError(f"{field_name(path, i)}: must be an object")
        yield (path, i), entry
