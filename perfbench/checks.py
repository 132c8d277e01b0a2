"""Correctness checks on every archive, and the front-quality yardstick.

All of this runs outside the timed region.  ``oracle`` is used here only, as
the reference.
"""

from __future__ import annotations

import numpy as np

from ccplace import objectives, oracle, placement


def archive_problems(out, parsed) -> list[str]:
    """Everything wrong with one anneal's outcome; empty when it is sound.

    Each member must be exactly common-centroid, place the netlist's units,
    respect the annealer's break and dummy bounds and carry the vector a
    fresh evaluation gives; members must be mutually non-dominated, and
    ``parsed``, the report read back with ``report_from_json``, must hold the
    same archive and selection.
    """
    problems = []
    nl = out.netlist
    fresh_cache: dict = {}
    for k, s in enumerate(out.solutions):
        p = s.placement
        if not placement.check_cc(p).is_cc:
            problems.append(f"member {k}: not common-centroid")
        try:
            p.validate(nl)
        except placement.PlacementError as exc:
            problems.append(f"member {k}: {exc}")
        if placement.count_diffusion_breaks(p, nl) > out.db_max:
            problems.append(f"member {k}: breaks above the bound {out.db_max}")
        if placement.count_dummies(p, nl) > out.dummy_max:
            problems.append(f"member {k}: dummies above the bound {out.dummy_max}")
        if objectives.evaluate(p, nl, route_cache=fresh_cache) != s.objectives:
            problems.append(f"member {k}: stored vector differs from a fresh evaluation")
    vecs = np.array([s.objectives.as_tuple() for s in out.solutions], dtype=float)
    for k, v in enumerate(vecs):
        if np.any(np.all(vecs <= v, axis=1) & np.any(vecs < v, axis=1)):
            problems.append(f"member {k}: dominated by another member")
    if parsed.archive != out.solutions:
        problems.append("report does not parse back to the archive")
    if parsed.selected != out.solutions.index(out.selected):
        problems.append("report does not parse back to the selected member")
    return problems


def exact_front(nl, dims, db_max: int, dummy_max: int) -> list[tuple]:
    """Objective vectors of the true Pareto front over every common-centroid
    placement within the bounds; raises OracleBudgetError when the instance
    is too large to enumerate."""
    cache: dict = {}
    vectors = set()
    for p in oracle.cc_enumerate(nl, dims, oracle.DEFAULT_BUDGET):
        if placement.count_diffusion_breaks(p, nl) <= db_max and placement.count_dummies(p, nl) <= dummy_max:
            vectors.add(objectives.evaluate(p, nl, route_cache=cache).as_tuple())
    return sorted(v for v in vectors if not any(objectives.dominates(o, v) for o in vectors))


def additive_eps(archive: list[tuple], front: list[tuple]) -> float:
    """Additive epsilon indicator of ``archive`` against ``front`` (Zitzler et
    al., IEEE TEVC 2003): the least shift that makes every front vector
    weakly dominated by some archive vector, each objective scaled by the
    front's range (1 where the range is zero)."""
    widths = [(max(col) - min(col)) or 1.0 for col in zip(*front)]
    return max(
        min(max((a - f) / w for a, f, w in zip(av, fv, widths)) for av in archive)
        for fv in front
    )


def recall(archive: list[tuple], front: list[tuple]) -> float:
    """Share of the front's vectors present in the archive."""
    have = set(archive)
    return sum(1 for v in front if v in have) / len(front)
