"""Grid rendering and JSON run reports.

Reports round-trip losslessly: parsing an emitted report reproduces the
archive exactly.  The canonical JSON bytes are deterministic for a fixed
seed and config; wall-clock time is therefore excluded unless explicitly
requested.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .anneal import Archive, Solution
from .netlist import DeviceSpec, Netlist
from .objectives import ObjectiveVector
from .placement import DUMMY, Dummy, GridDims, Placement, PlacementError, Unit

DUMMY_CHAR = "·"
_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"


def _letter_map(names) -> dict[str, str]:
    """One render character per device: the name itself when every name is a
    single character, else letters assigned in sorted-name order."""
    ordered = sorted(set(names))
    if all(len(n) == 1 for n in ordered):
        return {n: n for n in ordered}
    if len(ordered) > len(_LETTERS):
        raise PlacementError(f"cannot render more than {len(_LETTERS)} devices")
    return {n: _LETTERS[i] for i, n in enumerate(ordered)}


def render_placement(p: Placement) -> str:
    """Character grid: one cell per unit, '·' for dummies, blank for empty."""
    letters = _letter_map(c.device for c in p.cells if isinstance(c, Unit))
    lines = []
    for y in range(1, p.dims.rows + 1):
        chars = []
        for x in range(1, p.dims.cols + 1):
            c = p.at(x, y)
            if isinstance(c, Unit):
                chars.append(letters[c.device])
            elif isinstance(c, Dummy):
                chars.append(DUMMY_CHAR)
            else:
                chars.append(" ")
        lines.append(" ".join(chars))
    return "\n".join(lines)


def parse_rendered(text: str, device_names=None) -> Placement:
    """Rebuild a placement from its rendered grid.

    Unit indices are assigned row-major per device; pass ``device_names``
    to recover full names when the rendering had to assign letters.
    """
    lines = text.splitlines()
    if not lines or not any(line.strip() for line in lines):
        raise PlacementError("empty rendering")
    if device_names is None:
        device_names = sorted(
            {ch for line in lines for ch in line[::2] if ch not in (" ", DUMMY_CHAR)}
        )
    inverse = {v: k for k, v in _letter_map(device_names).items()}
    cols = max((len(line) + 1) // 2 for line in lines)
    cells = []
    counters: dict[str, int] = {}
    for line in lines:
        padded = line.ljust(2 * cols - 1)
        for x in range(cols):
            ch = padded[2 * x]
            if ch == " ":
                cells.append(None)
            elif ch == DUMMY_CHAR:
                cells.append(DUMMY)
            else:
                device = inverse.get(ch)
                if device is None:
                    raise PlacementError(f"unknown device letter {ch!r}")
                k = counters.get(device, 0)
                counters[device] = k + 1
                cells.append(Unit(device, k))
    return Placement(GridDims(len(lines), cols), tuple(cells))


# ---------------------------------------------------------------------------
# JSON serialisation
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    """Everything needed to reproduce and inspect one optimisation run."""

    seed: int
    config: dict
    dims: GridDims
    netlist: dict
    archive: list[Solution]
    selected: int
    ranges: list[tuple[float, float]]
    wall_clock_s: float | None = None


def netlist_to_dict(nl: Netlist) -> dict:
    return {
        "devices": [
            {"name": d.name, "units": d.unit_count, "gate": d.gate_net,
             "source": d.source_net, "drain": d.drain_net}
            for d in nl.devices
        ],
        "route_nets": [{"net": net, "members": list(members)} for net, members in nl.route_nets],
    }


def netlist_from_dict(doc: dict) -> Netlist:
    devices = tuple(
        DeviceSpec(d["name"], d["units"], d["gate"], d["source"], d["drain"])
        for d in doc["devices"]
    )
    nets = tuple((n["net"], tuple(n["members"])) for n in doc.get("route_nets", []))
    return Netlist(devices, nets)


def _cell_to_json(c):
    if c is None:
        return None
    if isinstance(c, Dummy):
        return "dummy"
    return [c.device, c.index, c.flip]


def _field(doc: dict, key: str, where: str, kind, what: str):
    """``doc[key]`` checked against ``kind``; a ValueError names the field."""
    name = f"{where}.{key}" if where else key
    if key not in doc:
        raise ValueError(f"{name}: missing field")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name}: must be {what}, got {type(value).__name__}")
    return value


_NUMBER = (int, float)


def _object(doc: dict, key: str, where: str = "") -> dict:
    return _field(doc, key, where, dict, "an object")


def _list(doc: dict, key: str, where: str = "") -> list:
    return _field(doc, key, where, list, "a list")


def _dims_from_json(doc: dict, where: str) -> GridDims:
    rows, cols = (_field(doc, k, where, int, "a positive integer") for k in ("rows", "cols"))
    if rows < 1 or cols < 1:
        raise ValueError(f"{where}: must be at least 1x1, got {rows}x{cols}")
    return GridDims(rows, cols)


def _cell_from_json(v, where: str):
    if v is None:
        return None
    if v == "dummy":
        return DUMMY
    if (isinstance(v, list) and len(v) == 3 and isinstance(v[0], str) and v[0]
            and isinstance(v[1], int) and not isinstance(v[1], bool) and isinstance(v[2], bool)):
        return Unit(v[0], v[1], v[2])
    raise ValueError(f'{where}: must be null, "dummy" or [device, index, flip]')


def _placement_to_json(p: Placement) -> dict:
    return {
        "rows": p.dims.rows,
        "cols": p.dims.cols,
        "cells": [_cell_to_json(c) for c in p.cells],
    }


def _placement_from_json(doc: dict, where: str) -> Placement:
    dims = _dims_from_json(doc, where)
    cells = _list(doc, "cells", where)
    if len(cells) != dims.cells:
        raise ValueError(f"{where}.cells: expected {dims.cells} cells, got {len(cells)}")
    return Placement(dims, tuple(_cell_from_json(c, f"{where}.cells[{i}]") for i, c in enumerate(cells)))


def _objectives_to_json(o: ObjectiveVector) -> dict:
    return {
        "neg_dispersion": o.neg_dispersion,
        "lde_mismatch": o.lde_mismatch,
        "routing_cost": o.routing_cost,
        "diffusion_breaks": o.diffusion_breaks,
        "dummy_count": o.dummy_count,
    }


def _objectives_from_json(doc: dict, where: str) -> ObjectiveVector:
    return ObjectiveVector(
        neg_dispersion=_field(doc, "neg_dispersion", where, _NUMBER, "a number"),
        lde_mismatch=_field(doc, "lde_mismatch", where, _NUMBER, "a number"),
        routing_cost=_field(doc, "routing_cost", where, int, "an integer"),
        diffusion_breaks=_field(doc, "diffusion_breaks", where, int, "an integer"),
        dummy_count=_field(doc, "dummy_count", where, int, "an integer"),
    )


def report_to_json(r: RunReport, include_timing: bool = False) -> str:
    """Serialise a report; byte-stable for a fixed seed and config.

    ``include_timing`` adds the wall-clock field and intentionally breaks
    byte-for-byte comparability between runs.
    """
    doc = {
        "seed": r.seed,
        "config": r.config,
        "grid": {"rows": r.dims.rows, "cols": r.dims.cols},
        "netlist": r.netlist,
        "archive": [
            {"placement": _placement_to_json(s.placement),
             "objectives": _objectives_to_json(s.objectives)}
            for s in r.archive
        ],
        "selected": r.selected,
        "objective_ranges": [[lo, hi] for lo, hi in r.ranges],
    }
    if include_timing and r.wall_clock_s is not None:
        doc["wall_clock_s"] = r.wall_clock_s
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def report_from_json(text: str) -> RunReport:
    """Parse a report; a ValueError names the missing or ill-typed field."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("top level must be an object")
    archive = []
    for i, entry in enumerate(_list(doc, "archive")):
        where = f"archive[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: must be an object")
        archive.append(Solution(
            _placement_from_json(_object(entry, "placement", where), f"{where}.placement"),
            _objectives_from_json(_object(entry, "objectives", where), f"{where}.objectives"),
        ))
    ranges = []
    for i, pair in enumerate(_list(doc, "objective_ranges")):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(b, _NUMBER) and not isinstance(b, bool) for b in pair)):
            raise ValueError(f"objective_ranges[{i}]: must be a [low, high] pair of numbers")
        ranges.append(tuple(pair))
    return RunReport(
        seed=_field(doc, "seed", "", int, "an integer"),
        config=_object(doc, "config"),
        dims=_dims_from_json(_object(doc, "grid"), "grid"),
        netlist=_object(doc, "netlist"),
        archive=archive,
        selected=_field(doc, "selected", "", int, "an integer"),
        ranges=ranges,
        wall_clock_s=(None if doc.get("wall_clock_s") is None
                      else _field(doc, "wall_clock_s", "", _NUMBER, "a number")),
    )
