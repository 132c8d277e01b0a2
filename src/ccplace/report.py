"""Grid rendering and JSON run reports.

Reports round-trip losslessly: parsing an emitted report reproduces the
archive exactly.  The grid is written once, at the top level, and each
archive member is ``{"cells": [...], "objectives": {...}}`` with one cell per
grid position in row-major order: the device name, or null when empty.
``wall_clock_s`` is written only when the report carries it, so a report
without it is byte-stable for a fixed seed and config.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .anneal import Archive, Solution
from .netlist import Netlist
from .objectives import OBJECTIVE_NAMES, ObjectiveVector
from .placement import GridDims, Placement, PlacementError

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
    """Character grid: one character per unit, blank for an empty cell,
    cells separated by one space."""
    letters = _letter_map(c for c in p.cells if c is not None)
    cols = p.dims.cols
    rows = (p.cells[i:i + cols] for i in range(0, p.dims.cells, cols))
    return "\n".join(" ".join(letters.get(c, " ") for c in row) for row in rows)


def parse_rendered(text: str, device_names=None) -> Placement:
    """Rebuild a placement from its rendered grid.

    Pass ``device_names`` to recover full names when the rendering had to
    assign letters.
    """
    lines = text.splitlines()
    if not lines or not any(line.strip() for line in lines):
        raise PlacementError("empty rendering")
    for y, line in enumerate(lines, 1):
        for x in range(1, len(line), 2):
            if line[x] != " ":
                raise PlacementError(f"line {y}, column {x + 1}: cells must be separated "
                                     f"by a space, got {line[x]!r}")
    if device_names is None:
        device_names = sorted({ch for line in lines for ch in line[::2]} - {" "})
    inverse = {v: k for k, v in _letter_map(device_names).items()}
    cols = max((len(line) + 1) // 2 for line in lines)
    cells = []
    for line in lines:
        for ch in line.ljust(2 * cols - 1)[::2]:
            if ch != " " and ch not in inverse:
                raise PlacementError(f"unknown device letter {ch!r}")
            cells.append(inverse.get(ch))
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


def _field(doc: dict, key: str, where: str, kind, what: str):
    """``doc[key]`` checked against ``kind`` and, for a float, finiteness
    (``json.loads`` reads NaN and Infinity); a ValueError names the field."""
    name = f"{where}.{key}" if where else key
    if key not in doc:
        raise ValueError(f"{name}: missing field")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name}: must be {what}, got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name}: must be finite, got {value}")
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


def _device_names(netlist: dict) -> frozenset[str]:
    names = set()
    for i, device in enumerate(_list(netlist, "devices", "netlist")):
        where = f"netlist.devices[{i}]"
        if not isinstance(device, dict):
            raise ValueError(f"{where}: must be an object")
        names.add(_field(device, "name", where, str, "a string"))
    return frozenset(names)


def _placement_from_json(doc: dict, where: str, grid: GridDims, devices: frozenset[str]) -> Placement:
    cells = _list(doc, "cells", where)
    if len(cells) != grid.cells:
        raise ValueError(f"{where}.cells: expected {grid.cells} cells, got {len(cells)}")
    for i, c in enumerate(cells):
        if c is None:
            continue
        if not isinstance(c, str):
            raise ValueError(f"{where}.cells[{i}]: must be null or a device name")
        if c not in devices:
            raise ValueError(f"{where}.cells[{i}]: device {c!r} is not in the report's netlist")
    return Placement(grid, tuple(cells))


def _count(doc: dict, key: str, where: str) -> int:
    value = _field(doc, key, where, int, "an integer")
    if value < 0:
        raise ValueError(f"{where}.{key}: must be non-negative, got {value}")
    return value


def _objectives_from_json(doc: dict, where: str) -> ObjectiveVector:
    return ObjectiveVector(
        neg_dispersion=_field(doc, "neg_dispersion", where, _NUMBER, "a number"),
        lde_mismatch=_field(doc, "lde_mismatch", where, _NUMBER, "a number"),
        routing_cost=_count(doc, "routing_cost", where),
        diffusion_breaks=_count(doc, "diffusion_breaks", where),
        dummy_count=_count(doc, "dummy_count", where),
    )


def report_to_json(r: RunReport) -> str:
    """Serialise a report; byte-stable for a fixed seed and config unless
    ``wall_clock_s`` is set, in which case it is written too."""
    doc = {
        "seed": r.seed,
        "config": r.config,
        "grid": {"rows": r.dims.rows, "cols": r.dims.cols},
        "netlist": r.netlist,
        "archive": [
            {"cells": list(s.placement.cells), "objectives": s.objectives._asdict()}
            for s in r.archive
        ],
        "selected": r.selected,
        "objective_ranges": [[lo, hi] for lo, hi in r.ranges],
    }
    if r.wall_clock_s is not None:
        doc["wall_clock_s"] = r.wall_clock_s
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def report_from_json(text: str) -> RunReport:
    """Parse a report; a ValueError names the missing, ill-typed or
    inconsistent field."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise ValueError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("top level must be an object")
    dims = _dims_from_json(_object(doc, "grid"), "grid")
    netlist = _object(doc, "netlist")
    devices = _device_names(netlist)
    archive = []
    for i, entry in enumerate(_list(doc, "archive")):
        where = f"archive[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: must be an object")
        archive.append(Solution(
            _placement_from_json(entry, where, dims, devices),
            _objectives_from_json(_object(entry, "objectives", where), f"{where}.objectives"),
        ))
    ranges = []
    for i, pair in enumerate(_list(doc, "objective_ranges")):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(b, _NUMBER) and not isinstance(b, bool) and math.isfinite(b)
                        for b in pair)):
            raise ValueError(f"objective_ranges[{i}]: must be a [low, high] pair of finite numbers")
        ranges.append(tuple(pair))
    if len(ranges) != len(OBJECTIVE_NAMES):
        raise ValueError(f"objective_ranges: must hold {len(OBJECTIVE_NAMES)} pairs, got {len(ranges)}")
    selected = _field(doc, "selected", "", int, "an integer")
    if not 0 <= selected < len(archive):
        raise ValueError(f"selected: must index the {len(archive)}-member archive, got {selected}")
    return RunReport(
        seed=_field(doc, "seed", "", int, "an integer"),
        config=_object(doc, "config"),
        dims=dims,
        netlist=netlist,
        archive=archive,
        selected=selected,
        ranges=ranges,
        wall_clock_s=(None if doc.get("wall_clock_s") is None
                      else _field(doc, "wall_clock_s", "", _NUMBER, "a number")),
    )
