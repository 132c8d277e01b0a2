"""Objective evaluation and the Pareto arithmetic built on top.

A placement maps to five minimised components: negated dispersion (how well
devices interleave), layout-effect mismatch (well-proximity imbalance
between devices), routed net length, diffusion breaks, and dummy count.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .netlist import Netlist
from .placement import Placement, count_diffusion_breaks, count_dummies
from .routing import routing_cost


class ObjectiveVector(NamedTuple):
    """The five minimised objectives of one placement.

    A vector is its own tuple: the Pareto arithmetic below works on plain
    tuples, so it takes objective vectors and bare tuples of any equal
    length alike.
    """

    neg_dispersion: float
    lde_mismatch: float
    routing_cost: int
    diffusion_breaks: int
    dummy_count: int

    def as_tuple(self) -> tuple:
        # perfbench/checks.py and perfbench/measure.py read vectors through this
        return tuple(self)


OBJECTIVE_NAMES = ObjectiveVector._fields


def dispersion(p: Placement) -> Fraction:
    """Interleaving statistic in (-1, 1] over the grid's adjacency edges.

    +1 when every edge joins units of different devices, -1 when none does.
    Edges touching empty cells count as same-device.
    """
    rows, cols = p.dims.rows, p.dims.cols
    n_edges = 2 * rows * cols - rows - cols
    if n_edges == 0:
        raise ValueError("dispersion is undefined on a 1x1 grid")
    ok = 0
    for i, c in enumerate(p.cells):
        if not isinstance(c, str):
            continue
        x, y = p.coord(i)
        if x < cols:
            right = p.cells[i + 1]
            if isinstance(right, str) and right != c:
                ok += 1
        if y < rows:
            below = p.cells[i + cols]
            if isinstance(below, str) and below != c:
                ok += 1
    return Fraction(2 * ok - n_edges, n_edges)


@lru_cache(maxsize=None)
def _wpe_weights(rows: int, cols: int) -> tuple[int, tuple[int, ...]]:
    """(L, w): per-cell inverse-WPE terms scaled to integers by a common L.

    ``w[i]`` is L/x + L/(cols+1-x) + L/y + L/(rows+1-y) for the cell at
    row-major index i, with L = lcm(1..max(rows, cols)) so every term is
    exact.
    """
    L = math.lcm(*range(1, max(rows, cols) + 1))
    w = tuple(
        L // x + L // (cols + 1 - x) + L // y + L // (rows + 1 - y)
        for y in range(1, rows + 1)
        for x in range(1, cols + 1)
    )
    return L, w


def _wpe_sums(p: Placement) -> tuple[int, dict[str, int]]:
    """(L, sums): each device's inverse-WPE total is ``sums[device] / L``."""
    L, w = _wpe_weights(p.dims.rows, p.dims.cols)
    sums: dict[str, int] = {}
    for cell, wi in zip(p.cells, w):
        if isinstance(cell, str):
            sums[cell] = sums.get(cell, 0) + wi
    return L, sums


def _no_units(device: str) -> ValueError:
    return ValueError(f"device {device!r} has no units in the placement")


def inv_wpe(p: Placement, device: str) -> Fraction:
    """Inverse-distance proxy for the well-proximity shift of one device.

    Sums 1/x + 1/(r+1-x) + 1/y + 1/(c+1-y) over the device's units, where r
    is the cells per row and c the cells per column; larger when units hug
    the array edges.  The horizontal terms double as a diffusion-length
    proxy.
    """
    L, sums = _wpe_sums(p)
    if device not in sums:
        raise _no_units(device)
    return Fraction(sums[device], L)


def lde_mismatch(p: Placement, nl: Netlist) -> Fraction:
    """Pairwise spread of the per-unit mean inverse-WPE across devices.

    Zero exactly when all devices see the same mean edge proximity; a single
    device yields 0 by convention (empty pair sum).

    Computed in integers over one common denominator L * M, where L is the
    grid's ``lcm(1..max(rows, cols))`` (see ``inv_wpe``) and M the lcm of the
    unit counts: device d's mean is ``sums[d] * (M / n_d) / (L * M)``, so the
    exact ``Fraction`` comes from a single division.
    """
    L, sums = _wpe_sums(p)
    M = math.lcm(*(d.unit_count for d in nl.devices))
    scaled = []
    for d in nl.devices:
        if d.name not in sums:
            raise _no_units(d.name)
        scaled.append(sums[d.name] * (M // d.unit_count))
    scaled.sort()
    k = len(scaled)
    # sum over pairs of |a_i - a_j| for sorted a: each a_i enters 2i - k + 1 times
    total = sum((2 * i - k + 1) * a for i, a in enumerate(scaled))
    return Fraction(total, L * M)


def evaluate(p: Placement, nl: Netlist, *, route_cache: dict | None = None) -> ObjectiveVector:
    """All five objectives of a placement; pure and deterministic."""
    return ObjectiveVector(
        neg_dispersion=float(-dispersion(p)),
        lde_mismatch=float(lde_mismatch(p, nl)),
        routing_cost=routing_cost(p, nl, cache=route_cache),
        diffusion_breaks=count_diffusion_breaks(p, nl),
        dummy_count=count_dummies(p, nl),
    )


# ---------------------------------------------------------------------------
# Pareto arithmetic
# ---------------------------------------------------------------------------


def dominates(a: tuple, b: tuple) -> bool:
    """Strict Pareto domination of tuple ``a`` over tuple ``b``: no component
    worse, at least one better."""
    if len(a) != len(b):
        raise ValueError(f"objective vectors differ in length: {len(a)} vs {len(b)}")
    # map(operator.le) runs the component loop in C
    return all(map(operator.le, a, b)) and a != b


class ObjectiveRanges:
    """Running per-component (min, max) envelope of all evaluated vectors.

    The widths normalise domination amounts; a component never seen to vary
    gets width 1 so it stays neutral.  Adding a vector twice changes
    nothing, so ``CcAnnealer`` adds each one once, on its evaluation-cache
    miss.
    """

    def __init__(self) -> None:
        self._lo: list[float] | None = None
        self._hi: list[float] | None = None

    def update(self, vec: tuple) -> None:
        if self._lo is None:
            self._lo = [float(v) for v in vec]
            self._hi = [float(v) for v in vec]
            return
        if len(vec) != len(self._lo):
            raise ValueError(f"expected {len(self._lo)} components, got {len(vec)}")
        for i, v in enumerate(vec):
            if v < self._lo[i]:
                self._lo[i] = float(v)
            if v > self._hi[i]:
                self._hi[i] = float(v)

    def width(self, i: int) -> float:
        if self._lo is None:
            raise ValueError("no vectors observed yet")
        span = self._hi[i] - self._lo[i]
        return span if span > 0 else 1.0

    def bounds(self) -> list[tuple[float, float]]:
        if self._lo is None:
            return []
        return list(zip(self._lo, self._hi))


def delta_dom(a: tuple, b: tuple, ranges: ObjectiveRanges) -> float:
    """Amount of domination: the product of normalised gaps over the
    components where tuples ``a`` and ``b`` differ.  Undefined for equal
    vectors."""
    if a == b:
        raise ValueError("domination amount is undefined for identical vectors")
    out = 1.0
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            out *= abs(x - y) / ranges.width(i)
    return out
