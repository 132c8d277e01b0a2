"""Placement grid for common-centroid unit arrays.

A cell holds the name of the device whose unit sits there, or None when it
is empty.  Units of one device are interchangeable: every objective reads
only which device occupies each cell, so placements carry no unit identity.
Coordinates are 1-based: ``x`` is the column (1..cols, left to right), ``y``
the row (1..rows, top to bottom).  Every operation returns a new placement;
nothing mutates in place, so values are safe to share between workers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .netlist import Netlist


class PlacementError(ValueError):
    """Raised for invalid grids, cells, or transformation preconditions."""


@dataclass(frozen=True)
class GridDims:
    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise PlacementError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")

    @property
    def cells(self) -> int:
        return self.rows * self.cols


# A unit cell holds its device's name; empty cells are stored as None.
Cell = str | None


@dataclass(frozen=True)
class Placement:
    """A rectangular grid of cells in row-major order."""

    dims: GridDims
    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        if len(self.cells) != self.dims.cells:
            raise PlacementError(f"expected {self.dims.cells} cells, got {len(self.cells)}")

    # -- indexing -----------------------------------------------------------

    def index(self, x: int, y: int) -> int:
        if not (1 <= x <= self.dims.cols and 1 <= y <= self.dims.rows):
            raise PlacementError(f"position ({x}, {y}) outside {self.dims.rows}x{self.dims.cols} grid")
        return (y - 1) * self.dims.cols + (x - 1)

    def coord(self, i: int) -> tuple[int, int]:
        y, x = divmod(i, self.dims.cols)
        return x + 1, y + 1

    def at(self, x: int, y: int) -> Cell:
        return self.cells[self.index(x, y)]

    def rot180_index(self, i: int) -> int:
        return self.dims.cells - 1 - i

    # -- views --------------------------------------------------------------

    def validate(self, nl: Netlist) -> None:
        """Check that every netlist device has exactly its unit count placed
        and that no other device appears."""
        got = Counter(c for c in self.cells if isinstance(c, str))
        for d in nl.devices:
            if got[d.name] != d.unit_count:
                raise PlacementError(
                    f"device {d.name!r}: {got[d.name]} units placed, the netlist has {d.unit_count}"
                )
        known = {d.name for d in nl.devices}
        extra = sorted(name for name in got if name not in known)
        if extra:
            raise PlacementError(f"device {extra[0]!r} does not belong to the netlist")


@dataclass(frozen=True)
class CentroidReport:
    """Exact per-device centroids; ``is_cc`` iff all sit at the array centre."""

    centroids: dict[str, tuple[Fraction, Fraction]]
    center: tuple[Fraction, Fraction]
    is_cc: bool


def check_cc(p: Placement) -> CentroidReport:
    """Compute each device's (mean column, mean row) in exact rationals."""
    first, second = _half_sums(p)
    sums = {d: (first.get(d, _ZERO), second.get(d, _ZERO)) for d in first | second}
    centroids = {d: (Fraction(a[0] + b[0], a[2] + b[2]), Fraction(a[1] + b[1], a[2] + b[2]))
                 for d, (a, b) in sums.items()}
    center = (Fraction(p.dims.cols + 1, 2), Fraction(p.dims.rows + 1, 2))
    return CentroidReport(centroids, center, all(_centred(a, b, p.dims) for a, b in sums.values()))


def _half_sums(p: Placement) -> tuple[dict[str, list[int]], dict[str, list[int]]]:
    """Per device [sum of x, sum of y, unit count] over the first half of the
    grid and over the second half, each in row-major order of first
    appearance.  The first half ends before row-major index
    (cells + 1) // 2, so it holds the centre cell of an odd grid, which
    ``transform_xy180`` never moves."""
    cols = p.dims.cols
    start = (p.dims.cells + 1) // 2
    halves: tuple[dict[str, list[int]], dict[str, list[int]]] = ({}, {})
    for i, c in enumerate(p.cells):
        if c is not None:
            y, x = divmod(i, cols)
            sums = halves[i >= start]
            acc = sums.get(c)
            if acc is None:
                sums[c] = [x + 1, y + 1, 1]
            else:
                acc[0] += x + 1
                acc[1] += y + 1
                acc[2] += 1
    return halves


_ZERO = (0, 0, 0)


def _centred(a, b, dims: GridDims) -> bool:
    """The common-centroid rule: a device whose units have the half sums
    ``a`` plus ``b`` (see ``_half_sums``) sits at the array centre iff
    2*sum == n*(size+1) on both axes."""
    n = a[2] + b[2]
    return 2 * (a[0] + b[0]) == n * (dims.cols + 1) and 2 * (a[1] + b[1]) == n * (dims.rows + 1)


# ---------------------------------------------------------------------------
# Diffusion breaks and dummies
# ---------------------------------------------------------------------------


def break_positions(p: Placement, nl: Netlist) -> frozenset[tuple[int, int]]:
    """Diffusion breaks as (x, y): between columns x and x+1 in row y.

    Two horizontally adjacent units share iff some flip orientation brings
    equal nets into contact, i.e. their {source, drain} sets intersect.
    Empty cells have no junction at all.
    """
    nets = nl.diffusion_nets
    out = set()
    for y in range(1, p.dims.rows + 1):
        prev = None  # left cell's terminal sets, None after an empty cell
        for x in range(1, p.dims.cols + 1):
            cell = p.cells[(y - 1) * p.dims.cols + (x - 1)]
            if cell is None:
                prev = None
                continue
            try:
                terms = nets[cell]
            except KeyError:
                raise PlacementError(f"device {cell!r} is not in the netlist") from None
            if prev is not None and prev.isdisjoint(terms):
                out.add((x - 1, y))
            prev = terms
    return frozenset(out)


def count_diffusion_breaks(p: Placement, nl: Netlist, *, cache: dict | None = None) -> int:
    """``len(break_positions(p, nl))``; with ``cache``, read from
    ``_junction_counts`` instead."""
    if cache is None:
        return len(break_positions(p, nl))
    return _junction_counts(p, nl, cache)[0]


def _close_gaps(breaks, dims: GridDims) -> frozenset[tuple[int, int]]:
    """The break gaps closed under both mirrors and the 180-degree rotation.

    Gap (x, y) sits between columns x and x+1, so the horizontal mirror
    sends x to cols - x (not cols + 1 - x as for cells).
    """
    rows, cols = dims.rows, dims.cols
    gaps: set[tuple[int, int]] = set()
    for x, y in breaks:
        gaps.update(((x, y), (cols - x, y), (x, rows + 1 - y), (cols - x, rows + 1 - y)))
    return frozenset(gaps)


def dummy_positions(p: Placement, nl: Netlist) -> frozenset[tuple[int, int]]:
    """Filler slots needed to fill every break while keeping CC symmetry.

    The break gaps are closed under both mirrors and the 180-degree
    rotation, since a lone filler would destroy the very symmetry the
    placement exists for.  Gaps are (x, y) as in ``break_positions``.
    """
    return _close_gaps(break_positions(p, nl), p.dims)


def count_dummies(p: Placement, nl: Netlist, *, cache: dict | None = None) -> int:
    """Dummies required to fill the breaks: the size of the closed gap set.
    With ``cache``, read from ``_junction_counts`` instead."""
    if cache is None:
        return len(dummy_positions(p, nl))
    return _junction_counts(p, nl, cache)[1]


def _junction_counts(p: Placement, nl: Netlist, cache: dict) -> tuple[int, int]:
    """(diffusion breaks, dummies) of ``p``, memoised in ``cache`` by cells.

    A miss scans the junctions once and closes that one break set into the
    dummy gaps, so whichever count is asked for first, both are stored.
    The counts depend on the cells and the netlist only, so one cache
    serves one netlist.
    """
    counts = cache.get(p.cells)
    if counts is None:
        breaks = break_positions(p, nl)
        counts = cache[p.cells] = (len(breaks), len(_close_gaps(breaks, p.dims)))
    return counts


# ---------------------------------------------------------------------------
# Perturbation moves
# ---------------------------------------------------------------------------


def swap_mirrored(p: Placement, a: tuple[int, int], b: tuple[int, int]) -> Placement:
    """Swap the units at first-half positions ``a`` and ``b`` and repeat the
    identical swap on their 180-degree image cells.

    The first half is row-major index < cells // 2 (the centre cell of an
    odd grid belongs to neither half).
    """
    ia, ib = p.index(*a), p.index(*b)
    half = p.dims.cells // 2
    for pos, i in ((a, ia), (b, ib)):
        if i >= half:
            raise PlacementError(f"position {pos} is not in the first half of the grid")
        if not isinstance(p.cells[i], str):
            raise PlacementError(f"position {pos} does not hold a unit")
    cells = list(p.cells)
    ja, jb = p.rot180_index(ia), p.rot180_index(ib)
    cells[ia], cells[ib] = cells[ib], cells[ia]
    cells[ja], cells[jb] = cells[jb], cells[ja]
    return Placement(p.dims, tuple(cells))


def transform_xx180(half, dims: GridDims) -> Placement:
    """Fill the first ``len(half)`` cells with the given device names and the
    last ``len(half)`` with their 180-degree rotation.

    Any slack sits in the middle of the grid, which is its own 180-degree
    image, so the result is common-centroid for every device by construction.
    """
    half = tuple(half)
    for name in half:
        if not isinstance(name, str):
            raise PlacementError(f"half entries must be device names, got {type(name).__name__}")
    slack = dims.cells - 2 * len(half)
    if slack < 0:
        raise PlacementError(f"{len(half)} units cannot be mirrored into a {dims.rows}x{dims.cols} grid")
    return Placement(dims, half + (None,) * slack + half[::-1])


def transform_xy180(p: Placement, x_name: str, y_name: str) -> Placement:
    """Exchange the device labels of ``x`` and ``y`` within the rotated
    (second) half of the grid; the devices must have equal unit counts."""
    if x_name == y_name:
        raise PlacementError("label exchange needs two distinct devices")
    n_x, n_y = p.cells.count(x_name), p.cells.count(y_name)
    if n_x == 0 or n_y == 0:
        missing = x_name if n_x == 0 else y_name
        raise PlacementError(f"device {missing!r} has no units in the placement")
    if n_x != n_y:
        raise PlacementError(
            f"label exchange needs equal unit counts, got {x_name}:{n_x} vs {y_name}:{n_y}"
        )
    start = (p.dims.cells + 1) // 2  # centre cell of an odd grid stays put
    swap = {x_name: y_name, y_name: x_name}
    second = tuple(swap.get(c, c) for c in p.cells[start:])
    return Placement(p.dims, p.cells[:start] + second)


def enumerate_perturbations(
    p: Placement,
    nl: Netlist,
    rng,
    db_max: int | None = None,
    dummy_max: int | None = None,
    *,
    cache: dict | None = None,
    junction_cache: dict | None = None,
) -> list[Placement]:
    """One random mirrored swap plus every label-exchange variant over
    equal-count device pairs, filtered down to admissible CC candidates.

    ``rng`` needs a numpy-Generator-compatible ``integers``.  Candidates
    identical to ``p`` (no-op swaps) are dropped; the rest must be CC and
    within the break/dummy bounds.  May return [] -- the caller simply
    retries with a fresh draw on the next iteration.

    CC is decided before a label exchange is built, from half sums of the
    swapped placement ``base`` (see ``_half_sums``) and the one CC rule,
    ``_centred``, which ``check_cc`` applies too.  ``base`` is CC iff every
    device's two halves are centred.  Exchanging X and Y in the second half
    moves no other unit, so that exchange is CC iff every other device is
    centred, X's first half plus Y's second half is centred, and so is Y's
    first half plus X's second half.  Only the passing exchanges are built;
    then come the dedup against ``p`` and earlier candidates and the bound
    checks, in that order.  Dropping a non-CC candidate before the dedup
    rather than after it cannot change the output: identical cells get
    identical CC verdicts, so a cell tuple that only a non-CC candidate
    added to the dedup set can never match a CC candidate.

    ``cache`` memoises the CC candidates of a swap.  Its key is
    ``(p.cells, min(a, b), max(a, b))`` with ``a`` and ``b`` the row-major
    indices of the two swapped first-half cells, and its value is the list
    of deduplicated CC candidates before the bound checks, which depends on
    the cells, the swap and the netlist only.  So one cache serves any
    bounds, but only one netlist.  The swap is drawn from ``rng`` before the
    lookup, so a hit and a miss consume the same draws, and the bound checks
    run on every call.  ``junction_cache`` is handed to the two count
    functions as their ``cache``, so a bound check of cells seen before is
    one lookup; it too serves one netlist only.
    """
    half = p.dims.cells // 2
    spots = [i for i in range(half) if isinstance(p.cells[i], str)]
    if len(spots) < 2:
        return []
    i = int(rng.integers(len(spots)))
    j = int(rng.integers(len(spots) - 1))
    if j >= i:
        j += 1
    a, b = spots[i], spots[j]
    if cache is None:
        cache = {}
    key = (p.cells, min(a, b), max(a, b))
    candidates = cache.get(key)
    if candidates is None:
        candidates = cache[key] = _cc_candidates(p, nl, a, b)

    out = []
    for cand in candidates:
        if db_max is not None and count_diffusion_breaks(cand, nl, cache=junction_cache) > db_max:
            continue
        if dummy_max is not None and count_dummies(cand, nl, cache=junction_cache) > dummy_max:
            continue
        out.append(cand)
    return out


def _cc_candidates(p: Placement, nl: Netlist, ia: int, ib: int) -> list[Placement]:
    """The CC candidates of swapping first-half cells ``ia`` and ``ib`` of
    ``p``, deduplicated against ``p`` and each other, before any bound."""
    base = swap_mirrored(p, p.coord(ia), p.coord(ib))
    dims = p.dims
    first, second = _half_sums(base)
    off = {d for d in first.keys() | second.keys()
           if not _centred(first.get(d, _ZERO), second.get(d, _ZERO), dims)}
    candidates = [] if off else [base]
    if len(off) <= 2:
        for ai in range(len(nl.devices)):
            for bi in range(ai + 1, len(nl.devices)):
                x, y = nl.devices[ai].name, nl.devices[bi].name
                if (nl.devices[ai].unit_count == nl.devices[bi].unit_count and off <= {x, y}
                        and _centred(first.get(x, _ZERO), second.get(y, _ZERO), dims)
                        and _centred(first.get(y, _ZERO), second.get(x, _ZERO), dims)):
                    candidates.append(transform_xy180(base, x, y))

    out = []
    seen = {p.cells}
    for cand in candidates:
        if cand.cells not in seen:
            seen.add(cand.cells)
            out.append(cand)
    return out
