"""Deliberately naive reference implementations for certifying the fast paths.

Everything here trades speed for obviousness: explicit edge lists, exhaustive
candidate-point search, full enumeration.  Placements are grids of device
names, as everywhere in the package; the common-centroid test in
``cc_enumerate`` is written out inline rather than shared with the search.
Inputs beyond the budget are refused rather than ground through.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .netlist import Netlist
from .placement import GridDims, Placement


class OracleBudgetError(ValueError):
    """Input exceeds what the brute-force oracles are willing to chew."""


@dataclass(frozen=True)
class OracleBudget:
    max_cells: int = 32
    max_pins: int = 4
    max_placements: int = 1_000_000


DEFAULT_BUDGET = OracleBudget()


def dispersion_oracle(p: Placement, budget: OracleBudget = DEFAULT_BUDGET) -> Fraction:
    """Recount the dispersion statistic from an explicit edge list."""
    if p.dims.cells > budget.max_cells:
        raise OracleBudgetError(f"{p.dims.cells} cells exceed the {budget.max_cells}-cell budget")
    edges = []
    for y in range(1, p.dims.rows + 1):
        for x in range(1, p.dims.cols + 1):
            if x < p.dims.cols:
                edges.append(((x, y), (x + 1, y)))
            if y < p.dims.rows:
                edges.append(((x, y), (x, y + 1)))
    if not edges:
        raise ValueError("dispersion is undefined on a 1x1 grid")
    ok = 0
    for a, b in edges:
        ca, cb = p.at(*a), p.at(*b)
        if isinstance(ca, str) and isinstance(cb, str) and ca != cb:
            ok += 1
    return Fraction(2 * ok - len(edges), len(edges))


def kruskal_mst_weight(pins) -> int:
    """Spanning-tree weight by Kruskal + union-find; ``steiner_oracle`` builds on it."""
    pts = sorted(set(tuple(p) for p in pins))
    n = len(pts)
    if n < 2:
        return 0
    edges = sorted(
        (abs(pts[i][0] - pts[j][0]) + abs(pts[i][1] - pts[j][1]), i, j)
        for i in range(n) for j in range(i + 1, n)
    )
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    total = 0
    joined = 0
    for w, i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            total += w
            joined += 1
            if joined == n - 1:
                break
    return total


def steiner_oracle(pins, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Exact minimum rectilinear Steiner length by exhausting candidate
    points on the pins' coordinate grid (optimal trees need at most
    n_pins - 2 extra points, all on that grid)."""
    pts = sorted(set(tuple(p) for p in pins))
    if len(pts) > budget.max_pins:
        raise OracleBudgetError(f"{len(pts)} pins exceed the {budget.max_pins}-pin budget")
    if len(pts) < 2:
        return 0
    xs = sorted({x for x, _ in pts})
    ys = sorted({y for _, y in pts})
    taken = set(pts)
    candidates = [(x, y) for x in xs for y in ys if (x, y) not in taken]
    best = kruskal_mst_weight(pts)
    for k in range(1, len(pts) - 1):
        for extra in itertools.combinations(candidates, k):
            w = kruskal_mst_weight(pts + list(extra))
            if w < best:
                best = w
    return best


def cc_enumerate(nl: Netlist, dims: GridDims, budget: OracleBudget = DEFAULT_BUDGET) -> list[Placement]:
    """Every common-centroid device-label grid, in lexicographic order of the
    netlist's device order (empty cells last)."""
    if dims.cells > budget.max_cells:
        raise OracleBudgetError(f"{dims.cells} cells exceed the {budget.max_cells}-cell budget")
    total = nl.total_units
    if total > dims.cells:
        warnings.warn(f"grid {dims.rows}x{dims.cols} is too small for {total} units")
        return []
    counts = [(d.name, d.unit_count) for d in nl.devices]
    empties = dims.cells - total
    if empties:
        counts.append((None, empties))
    n_arrangements = math.factorial(dims.cells)
    for _, c in counts:
        n_arrangements //= math.factorial(c)
    if n_arrangements > budget.max_placements:
        raise OracleBudgetError(
            f"{n_arrangements} label arrangements exceed the {budget.max_placements} budget"
        )
    cols1, rows1 = dims.cols + 1, dims.rows + 1
    out = []
    for labels in _multiset_permutations(counts):
        sums: dict[str, list[int]] = {}
        for i, label in enumerate(labels):
            if label is None:
                continue
            y, x = divmod(i, dims.cols)
            acc = sums.setdefault(label, [0, 0, 0])
            acc[0] += x + 1
            acc[1] += y + 1
            acc[2] += 1
        if all(2 * sx == n * cols1 and 2 * sy == n * rows1 for sx, sy, n in sums.values()):
            out.append(Placement(dims, labels))
    return out


def _multiset_permutations(counts):
    """Distinct arrangements of a labelled multiset, lexicographic in the
    given label order."""
    labels = [label for label, _ in counts]
    remaining = [c for _, c in counts]
    total = sum(remaining)
    slot: list = [None] * total

    def rec(depth):
        if depth == total:
            yield tuple(slot)
            return
        for li, label in enumerate(labels):
            if remaining[li]:
                remaining[li] -= 1
                slot[depth] = label
                yield from rec(depth + 1)
                remaining[li] += 1

    yield from rec(0)


def pattern_classes(placements, nl: Netlist) -> list[list[Placement]]:
    """Group placements whose label grids differ only by permuting device
    names of equal unit count; the published figures count such patterns as
    one topology.  Groups keep first-seen order."""
    by_count: dict[int, list[str]] = {}
    for d in nl.devices:
        by_count.setdefault(d.unit_count, []).append(d.name)
    perm_maps = []
    group_perms = [itertools.permutations(names) for names in by_count.values()]
    originals = list(by_count.values())
    for combo in itertools.product(*group_perms):
        mapping = {}
        for orig, perm in zip(originals, combo):
            mapping.update(dict(zip(orig, perm)))
        perm_maps.append(mapping)

    groups: dict[tuple, list[Placement]] = {}
    for p in placements:
        key = min(
            tuple(mapping.get(lbl, lbl) if isinstance(lbl, str) else "" for lbl in p.cells)
            for mapping in perm_maps
        )
        groups.setdefault(key, []).append(p)
    return list(groups.values())
