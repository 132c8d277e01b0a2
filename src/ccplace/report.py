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

from .anneal import Solution
from .netlist import Netlist, entries, field, field_name, load_json, netlist_from_dict, read_grid
from .netlist import netlist_to_dict  # noqa: F401  (callers import it from here too)
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


_NUMBER = (int, float)


def _placement_from_json(doc: dict, where: tuple, grid: GridDims, nl: Netlist) -> Placement:
    cells = field(doc, "cells", where, list, "a list")
    if len(cells) != grid.cells:
        raise ValueError(f"{field_name(where, 'cells')}: expected {grid.cells} cells, got {len(cells)}")
    devices = {d.name for d in nl.devices}
    for i, c in enumerate(cells):
        if c is None:
            continue
        if not isinstance(c, str):
            raise ValueError(f"{field_name((where, 'cells'), i)}: must be null or a device name")
        if c not in devices:
            raise ValueError(f"{field_name((where, 'cells'), i)}: device {c!r} is not in the "
                             f"report's netlist")
    placement = Placement(grid, tuple(cells))
    try:
        placement.validate(nl)
    except PlacementError as e:
        raise ValueError(f"{field_name(where, 'cells')}: {e}") from None
    return placement


def _objectives_from_json(doc: dict, where: tuple) -> ObjectiveVector:
    return ObjectiveVector(
        neg_dispersion=field(doc, "neg_dispersion", where, _NUMBER, "a finite number"),
        lde_mismatch=field(doc, "lde_mismatch", where, _NUMBER, "a finite number"),
        routing_cost=field(doc, "routing_cost", where, int, "a non-negative integer", 0),
        diffusion_breaks=field(doc, "diffusion_breaks", where, int, "a non-negative integer", 0),
        dummy_count=field(doc, "dummy_count", where, int, "a non-negative integer", 0),
    )


def report_to_json(r: RunReport) -> str:
    """Serialise a report; byte-stable for a fixed seed and config unless
    ``wall_clock_s`` is set, in which case it is written too.

    The text is ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` of the
    whole report, with the archive written by ``_archive_json``.  "archive"
    sorts before every other top-level key, so it comes first.
    """
    doc = {
        "seed": r.seed,
        "config": r.config,
        "grid": {"rows": r.dims.rows, "cols": r.dims.cols},
        "netlist": r.netlist,
        "selected": r.selected,
        "objective_ranges": [[lo, hi] for lo, hi in r.ranges],
    }
    if r.wall_clock_s is not None:
        doc["wall_clock_s"] = r.wall_clock_s
    rest = json.dumps(doc, sort_keys=True, indent=2)
    return '{\n  "archive": ' + _archive_json(r.archive) + "," + rest[1:] + "\n"


def _archive_json(archive) -> str:
    """The members ``{"cells": [...], "objectives": {...}}`` as
    ``json.dumps(..., sort_keys=True, indent=2)`` lays them out under a
    top-level key.

    ``json`` encodes with ``indent`` in pure Python but compactly in C.
    With the item separator "," + line break + indent, the C encoder lays
    out a list or dict that holds no list or dict exactly as the indenting
    encoder does.  So each member's cells and objectives are one C call
    each, and only the two levels above them are joined here.
    """
    if not archive:
        return "[]"
    encode = json.JSONEncoder(sort_keys=True, separators=(",\n        ", ": ")).encode
    return "[\n    " + ",\n    ".join([
        '{\n      "cells": [\n        ' + encode(s.placement.cells)[1:-1]
        + '\n      ],\n      "objectives": {\n        ' + encode(s.objectives._asdict())[1:-1]
        + "\n      }\n    }"
        for s in archive
    ]) + "\n  ]"


def report_from_json(text: str) -> RunReport:
    """Parse a report; a ValueError names the missing, ill-typed or
    inconsistent field."""
    doc = load_json(text)
    field(doc, "grid", "", dict, "an object")  # optional in a netlist file, not here
    dims = GridDims(*read_grid(doc))
    netlist = field(doc, "netlist", "", dict, "an object")
    nl = netlist_from_dict(netlist, "netlist")
    archive = [
        Solution(_placement_from_json(entry, where, dims, nl),
                 _objectives_from_json(field(entry, "objectives", where, dict, "an object"),
                                       (where, "objectives")))
        for where, entry in entries(doc, "archive")
    ]
    ranges = []
    for i, pair in enumerate(field(doc, "objective_ranges", "", list, "a list")):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(b, _NUMBER) and not isinstance(b, bool) and math.isfinite(b)
                        for b in pair)):
            raise ValueError(f"objective_ranges[{i}]: must be a [low, high] pair of finite numbers")
        ranges.append(tuple(pair))
    if len(ranges) != len(OBJECTIVE_NAMES):
        raise ValueError(f"objective_ranges: must hold {len(OBJECTIVE_NAMES)} pairs, got {len(ranges)}")
    selected = field(doc, "selected", "", int, "an integer")
    if not 0 <= selected < len(archive):
        raise ValueError(f"selected: must index the {len(archive)}-member archive, got {selected}")
    return RunReport(
        seed=field(doc, "seed", "", int, "an integer"),
        config=field(doc, "config", "", dict, "an object"),
        dims=dims,
        netlist=netlist,
        archive=archive,
        selected=selected,
        ranges=ranges,
        wall_clock_s=(None if doc.get("wall_clock_s") is None
                      else field(doc, "wall_clock_s", "", _NUMBER, "a finite number")),
    )
