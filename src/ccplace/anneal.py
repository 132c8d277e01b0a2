"""Multi-candidate, archive-based simulated annealing over CC placements.

Each iteration perturbs the current placement into a whole candidate set
(one mirrored swap plus every label-exchange variant), prunes it to the
admissible non-dominated front, and resolves the current point by domination
case analysis; every surviving candidate then challenges the archive.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .netlist import Netlist
from .objectives import ObjectiveRanges, ObjectiveVector, delta_dom, dominates, evaluate
from .placement import (
    GridDims,
    Placement,
    PlacementError,
    enumerate_perturbations,
    transform_xx180,
)

DEFAULT_SELECTION_WEIGHTS = (1.0, 3.0, 3.0, 5.0, 5.0)

# Longest schedule a config may ask for: 476 times the default 2,100 steps.
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class SaConfig:
    """Annealing schedule, admissibility bounds, and selection weights.

    ``db_max`` / ``dummy_max`` of None bound candidates at the initial
    placement's own counts; a given bound must be non-negative.  A schedule
    of more than ``MAX_STEPS`` steps (levels x ``iters_per_temp``) is refused.
    """

    t_max: float = 100.0
    t_min: float = 1e-7
    alpha: float = 0.37
    iters_per_temp: int = 100
    db_max: int | None = None
    dummy_max: int | None = None
    seed: int = 0
    selection_weights: tuple[float, float, float, float, float] = DEFAULT_SELECTION_WEIGHTS

    @property
    def levels(self) -> int:
        """The number of temperature levels ``run`` anneals at: the k >= 0
        with t_max * alpha**k > t_min, counted as a log difference, since
        t_min / t_max underflows for a subnormal t_min."""
        return math.ceil((math.log(self.t_min) - math.log(self.t_max)) / math.log(self.alpha))

    def __post_init__(self) -> None:
        if not (0 < self.t_min < self.t_max < math.inf):
            raise ValueError(f"need 0 < t_min < t_max < inf, got t_min={self.t_min}, t_max={self.t_max}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"cooling rate must be in (0, 1), got {self.alpha}")
        if self.iters_per_temp < 1:
            raise ValueError(f"iters_per_temp must be positive, got {self.iters_per_temp}")
        levels = self.levels
        if levels * self.iters_per_temp > MAX_STEPS:
            raise ValueError(f"schedule of {levels * self.iters_per_temp:,} steps ({levels:,} levels x "
                             f"{self.iters_per_temp:,} iterations) exceeds the cap of {MAX_STEPS:,}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for name in ("db_max", "dummy_max"):
            bound = getattr(self, name)
            if bound is not None and bound < 0:
                raise ValueError(f"{name} must be non-negative, got {bound}")
        if len(self.selection_weights) != 5 or not all(0 <= w < math.inf for w in self.selection_weights):
            raise ValueError(f"selection_weights must be five finite non-negative reals, "
                             f"got {self.selection_weights}")


@dataclass(frozen=True)
class Solution:
    """A placement together with its (never stale) objective vector."""

    placement: Placement
    objectives: ObjectiveVector


class Archive:
    """Insertion-ordered set of mutually non-dominated solutions.

    One ordered dict maps each member's (vector, cells) key to the member.
    Next to it, a dict from each distinct member vector to its number of
    members.  Members with one vector are evicted together, so that dict
    keeps its vectors in the order of their first member.
    """

    def __init__(self):
        self._members: dict[tuple[ObjectiveVector, tuple], Solution] = {}
        self._counts: dict[ObjectiveVector, int] = {}

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(self._members.values())

    @property
    def solutions(self) -> tuple[Solution, ...]:
        return tuple(self._members.values())

    def vector_counts(self) -> Mapping[ObjectiveVector, int]:
        """Read-only view: each distinct member vector and its member count."""
        return MappingProxyType(self._counts)

    def insert(self, sol: Solution) -> bool:
        """Admit ``sol`` unless dominated; evict members it dominates.

        Exact duplicates (same cells and same vector) are rejected;
        distinct placements with equal vectors coexist.  Domination is
        tested against the distinct vectors only.  Because members are
        mutually non-dominated, a member with ``sol``'s vector rules out
        both domination of ``sol`` and any eviction, and the members are
        rebuilt only when some vector is evicted.
        """
        vec = sol.objectives
        key = (vec, sol.placement.cells)
        if key in self._members:
            return False
        counts = self._counts
        if vec not in counts:
            if any(dominates(v, vec) for v in counts):
                return False
            beaten = [v for v in counts if dominates(vec, v)]
            if beaten:
                for v in beaten:
                    del counts[v]
                self._members = {k: s for k, s in self._members.items() if k[0] in counts}
        self._members[key] = sol
        counts[vec] = counts.get(vec, 0) + 1
        return True


def accept_probability(delta_avg: float, temp: float) -> float:
    """Probability of adopting a candidate from the dominated side.

    0.5 at zero average domination, decreasing with the gap; high
    temperatures flatten the curve toward 0.5 (more exploration).  Large
    arguments saturate to 0 instead of overflowing.
    """
    if temp <= 0:
        raise ValueError(f"temperature must be positive, got {temp}")
    x = delta_avg / temp
    if x > 700.0:
        return 0.0
    return 1.0 / (1.0 + math.exp(x))


def delta_dom_avg(cur: Solution, new_pts, archive: Archive, ranges: ObjectiveRanges) -> float:
    """Mean domination amount exerted on the candidates by the archive and
    the current point.

    Averages over every (archive member, candidate) pair with domination
    plus every candidate the current point dominates.  With no such
    relation it is 0.0, which makes the acceptance probability a neutral
    0.5.  Members sharing a vector exert the same terms, so each distinct
    vector's terms are computed once and repeated per member.  ``math.fsum``
    rounds their exact sum once, so the mean does not depend on the order
    of members or candidates.
    """
    terms = []
    for v, members in [*archive.vector_counts().items(), (cur.objectives, 1)]:
        terms += [delta_dom(v, c.objectives, ranges)
                  for c in new_pts if dominates(v, c.objectives)] * members
    return math.fsum(terms) / len(terms) if terms else 0.0


def _choose_next(cur, new_pts, archive, ranges, temp, rng, memo=None):
    """Resolve the next current point from a non-dominated candidate set.

    Candidates dominating the current point win unconditionally; otherwise a
    uniformly picked survivor is adopted with the acceptance probability.
    Within a mutually non-dominated candidate set the dominated-by-cur and
    dominating-cur subsets cannot both be non-empty (transitivity), so the
    three cases are exclusive.

    ``memo`` maps ``(cur's vector, *candidate vectors)`` to its
    ``delta_dom_avg``.  The caller must empty it whenever the archive's
    vectors or ``ranges`` change, the other two inputs of the average.
    """
    dominators = [s for s in new_pts if dominates(s.objectives, cur.objectives)]
    if dominators:
        return dominators[int(rng.integers(len(dominators)))]
    pool = [s for s in new_pts if not dominates(cur.objectives, s.objectives)]
    if not pool:
        return cur
    pick = pool[int(rng.integers(len(pool)))]
    if memo is None:
        memo = {}
    key = (cur.objectives, *(s.objectives for s in new_pts))
    avg = memo.get(key)
    if avg is None:
        avg = memo[key] = delta_dom_avg(cur, new_pts, archive, ranges)
    if rng.random() < accept_probability(avg, temp):
        return pick
    return cur


class CcAnnealer:
    """Binds a netlist and grid to the annealing loop, caching evaluations,
    routes, moves, junction counts and domination averages.

    Objective evaluation is pure, so candidates are evaluated in their
    deterministic enumeration order (and could run in parallel) before any
    RNG draw happens; seed reproducibility is unaffected.  Four caches live
    as long as the annealer and are never pruned.  The evaluation cache maps
    cells to their vector and grows by at most one entry per candidate.  The
    route cache maps a net's cell-index key (see ``routing``) to its Steiner
    cost and grows by at most one entry per route net of each placement the
    evaluation cache misses.  The move cache holds the CC candidates of each
    (placement, swap) pair that ``enumerate_perturbations`` has built, for
    any bounds, and grows by at most one entry per step.  The junction cache
    maps cells to their (breaks, dummies) counts, read by the bound checks
    and by evaluation, and grows by at most one entry per bound-checked or
    evaluated placement.  The objective envelope ``ranges`` grows on
    evaluation-cache misses only, the initial placement's among them: a hit
    returns a vector it already holds.

    The domination memo maps ``(current vector, *candidate vectors)`` to
    ``delta_dom_avg`` (see ``_choose_next``).  It is emptied on every archive
    admission and every evaluation-cache miss, the only events that can
    change the archive's vectors or the envelope, so it holds at most one
    entry per step since the last such event.  Every cache returns exactly
    what a fresh computation would, and none changes a random draw, so
    seeded archives do not depend on them.
    """

    def __init__(self, nl: Netlist, dims: GridDims, cfg: SaConfig = SaConfig()):
        self.netlist = nl
        self.dims = dims
        self.cfg = cfg
        self.ranges = ObjectiveRanges()
        self._route_cache: dict = {}
        self._eval_cache: dict = {}
        self._move_cache: dict = {}
        self._junction_cache: dict = {}
        self._dom_memo: dict = {}
        self.archive = Archive()
        self.initial = initial_placement(nl, dims, evaluate_fn=self.evaluate)
        o = self.initial.objectives
        self.db_max = self.cfg.db_max if self.cfg.db_max is not None else o.diffusion_breaks
        self.dummy_max = self.cfg.dummy_max if self.cfg.dummy_max is not None else o.dummy_count
        if o.diffusion_breaks <= self.db_max and o.dummy_count <= self.dummy_max:
            self.archive.insert(self.initial)

    def evaluate(self, placement: Placement) -> ObjectiveVector:
        vec = self._eval_cache.get(placement.cells)
        if vec is None:
            vec = evaluate(placement, self.netlist, route_cache=self._route_cache,
                           junction_cache=self._junction_cache)
            self._eval_cache[placement.cells] = vec
            self.ranges.update(vec)
            self._dom_memo.clear()
        return vec

    def step(self, cur: Solution, temp: float, rng) -> Solution:
        """One perturbation round; updates the archive in place and returns
        the next current point (``cur`` itself when nothing was admissible)."""
        candidates = enumerate_perturbations(
            cur.placement, self.netlist, rng, self.db_max, self.dummy_max,
            cache=self._move_cache, junction_cache=self._junction_cache,
        )
        if not candidates:
            return cur
        evaluated = [Solution(c, self.evaluate(c)) for c in candidates]
        new_pts = [
            s for s in evaluated
            if not any(dominates(o.objectives, s.objectives) for o in evaluated)
        ]
        nxt = _choose_next(cur, new_pts, self.archive, self.ranges, temp, rng, self._dom_memo)
        for s in new_pts:
            if self.archive.insert(s):
                self._dom_memo.clear()
        return nxt

    def run(self, on_iteration=None) -> Archive:
        """Full anneal: geometric cooling from t_max over ``cfg.levels``
        temperature levels.

        Each temperature level draws from its own seeded stream, so a
        change in one level's iteration count cannot cascade into others.
        Raises ValueError when no placement within the break and dummy
        bounds was found.
        """
        cur = self.initial
        temp = self.cfg.t_max
        for level in range(self.cfg.levels):
            rng = np.random.default_rng([self.cfg.seed, level])
            for _ in range(self.cfg.iters_per_temp):
                cur = self.step(cur, temp, rng)
                if on_iteration is not None:
                    on_iteration(self.archive, cur, temp)
            temp *= self.cfg.alpha
        if not self.archive:
            o = self.initial.objectives
            raise ValueError(
                f"no placement found within db_max={self.db_max} and dummy_max={self.dummy_max}; "
                f"the initial placement has {o.diffusion_breaks} breaks and {o.dummy_count} dummies"
            )
        return self.archive


def initial_placement(nl: Netlist, dims: GridDims, evaluate_fn=None) -> Solution:
    """Mirrored sequential construction minimising diffusion breaks.

    Units of each device are grouped; the device order is the first one in
    permutation order with the fewest breaks (up to 8 devices, see
    ``_fewest_breaks_order``) or a greedy shared-terminal chain beyond that.
    Half the units fill the grid sequentially, the other half is their
    180-degree rotation, so the result is always common-centroid.

    A device with an odd unit count needs a grid with a true centre cell
    (odd rows and odd columns) to host its middle unit, and only one such
    device is supported; anything else fails with a diagnostic.
    """
    total = nl.total_units
    if total > dims.cells:
        raise PlacementError(f"{total} units do not fit a {dims.rows}x{dims.cols} grid")
    odd = [d.name for d in nl.devices if d.unit_count % 2]
    if odd and (len(odd) > 1 or dims.cells % 2 == 0):
        raise PlacementError(
            f"odd unit counts ({odd}) need an odd-rows x odd-cols grid with a "
            f"single such device; got {dims.rows}x{dims.cols}"
        )
    order = _fewest_breaks_order(nl, dims) if len(nl.devices) <= 8 else _greedy_chain(nl.devices)
    placement = _mirrored_fill(order, dims)
    vec = evaluate_fn(placement) if evaluate_fn is not None else evaluate(placement, nl)
    return Solution(placement, vec)


def _fewest_breaks_order(nl: Netlist, dims: GridDims) -> tuple:
    """The first order of ``itertools.permutations(nl.devices)`` whose
    ``_mirrored_fill`` has the fewest breaks, grown device by device in that
    order.  A prefix is dropped when it has as many breaks as the best order
    so far, or as an earlier prefix of the same devices ending on the same
    device with units, whose completions match its own and come first."""
    devices = nl.devices
    centre = [d.name for d in devices if d.unit_count % 2]
    best, seen = [math.inf, ()], {}

    def walk(order, used, last, pos, breaks):
        if len(order) == len(devices):
            if centre and dims.cells == 2 * pos + 1:  # the centre unit follows the half
                breaks += _junction_breaks(nl, last, centre[0], pos, dims.cols)
            if breaks < best[0]:
                best[:] = breaks, order
            return
        for i, d in enumerate(devices):
            if used >> i & 1 or best[0] <= breaks:
                continue
            half = d.unit_count // 2
            after = breaks + (_junction_breaks(nl, last, d.name, pos, dims.cols) if half else 0)
            state = (used | 1 << i, d.name if half else last)
            if seen.get(state, math.inf) > after:
                seen[state] = after
                walk(order + (d,), *state, pos + half, after)

    walk((), 0, None, 0, 0)
    return best[1]


def _junction_breaks(nl: Netlist, a, b, pos: int, cols: int) -> int:
    """Breaks where device ``b``'s units follow ``a``'s from half position
    ``pos``: at pos-1|pos and its image cells-pos-1|cells-pos, unless ``pos`` starts a row."""
    if pos % cols == 0 or nl.diffusion_nets[a] & nl.diffusion_nets[b]:
        return 0
    return 2


def _mirrored_fill(order, dims: GridDims) -> Placement:
    half: list[str] = []
    centre = None
    for d in order:
        half.extend([d.name] * (d.unit_count // 2))
        if d.unit_count % 2:
            centre = d.name
    p = transform_xx180(half, dims)
    if centre is not None:
        cells = list(p.cells)
        cells[(dims.cells - 1) // 2] = centre
        p = Placement(dims, tuple(cells))
    return p


def _greedy_chain(devices):
    rest = list(devices)
    order = [rest.pop(0)]
    while rest:
        tail = order[-1]
        for i, d in enumerate(rest):
            if tail.diffusion_nets & d.diffusion_nets:
                order.append(rest.pop(i))
                break
        else:
            order.append(rest.pop(0))
    return tuple(order)


def run(nl: Netlist, dims: GridDims, cfg: SaConfig = SaConfig(), *,
        on_iteration=None) -> Archive:
    """Anneal a netlist on the given grid; deterministic for a fixed config."""
    return CcAnnealer(nl, dims, cfg).run(on_iteration=on_iteration)


def select_solution(archive, weights=DEFAULT_SELECTION_WEIGHTS) -> Solution:
    """Pick the archive member minimising the weighted sum of min-max
    normalised objectives; ties fall back to lexicographic objective order.

    Min-max normalisation makes the argmin invariant under positive affine
    rescaling of any raw objective column.
    """
    sols = list(archive)
    if not sols:
        raise ValueError("archive is empty")
    w = tuple(weights)
    if len(w) != 5:
        raise ValueError(f"expected five weights, got {len(w)}")
    columns = list(zip(*(s.objectives for s in sols)))
    lows = [min(col) for col in columns]
    spans = [max(col) - min(col) for col in columns]

    def score(s: Solution) -> float:
        return sum(
            wi * ((v - lo) / span if span > 0 else 0.0)
            for wi, v, lo, span in zip(w, s.objectives, lows, spans)
        )

    return min(sols, key=lambda s: (score(s), s.objectives))
