import hashlib
import itertools
import json
import math
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccplace import (
    Archive,
    CcAnnealer,
    DeviceSpec,
    GridDims,
    Netlist,
    ObjectiveRanges,
    ObjectiveVector,
    Placement,
    PlacementError,
    SaConfig,
    Solution,
    accept_probability,
    cascode_diff_input_netlist,
    check_cc,
    count_diffusion_breaks,
    current_mirror_netlist,
    delta_dom,
    delta_dom_avg,
    dominates,
    find_case,
    initial_placement,
    run,
    select_solution,
)
from ccplace import anneal
from ccplace.anneal import _choose_next

from conftest import FakeRng, make_grid, ranges_of


def vec(*t):
    return ObjectiveVector(float(t[0]), float(t[1]), int(t[2]), int(t[3]), int(t[4]))


def sol(*t, grid=None):
    placement = grid if grid is not None else make_grid(["AB", "BA"])
    return Solution(placement, vec(*t))


# -- accept_probability -------------------------------------------------------


def test_prob_half_at_zero():
    for t in (1e-6, 0.5, 1.0, 100.0):
        assert accept_probability(0.0, t) == 0.5


def test_prob_at_delta_equal_temp():
    assert accept_probability(2.0, 2.0) == pytest.approx(1 / (1 + math.e), abs=1e-12)


def test_prob_flattens_at_high_temperature():
    assert accept_probability(1.0, 1e9) == pytest.approx(0.5, abs=1e-6)


def test_prob_saturates_to_zero():
    assert accept_probability(1e6, 1e-3) == 0.0


def test_prob_bounds_and_errors():
    for d in (0.0, 0.1, 3.0, 50.0):
        p = accept_probability(d, 1.0)
        assert 0 <= p <= 0.5
        assert p == 0.5 if d == 0 else p < 0.5
    with pytest.raises(ValueError):
        accept_probability(1.0, 0.0)


# -- delta_dom_avg ------------------------------------------------------------


def unit_ranges():
    return ranges_of([(0, 1)] * 5)


def archive_of(*sols):
    archive = Archive()
    for s in sols:
        archive.insert(s)
    return archive


def test_avg_single_cur_domination():
    cur = sol(0, 0, 0, 0, 0)
    new = [sol(1, 0, 0, 0, 0)]
    assert delta_dom_avg(cur, new, Archive(), unit_ranges()) == pytest.approx(1.0, abs=1e-12)


def test_avg_archive_only_k1_zero():
    cur = sol(1, 0, 0, 0, 1)  # does not dominate the candidate
    archive = archive_of(sol(0, 0, 0, 0, 0))
    new = [sol(0.5, 0, 0, 0, 0)]
    expected = 0.5  # single archive pair, single differing component
    assert delta_dom_avg(cur, new, archive, unit_ranges()) == pytest.approx(expected, abs=1e-12)


def test_avg_mean_of_two():
    cur = sol(0, 0, 0, 0, 0)
    new = [sol(1, 0, 0, 0, 0), sol(0, 1, 0, 0, 0)]
    r = ranges_of([(0, 1), (0, 1 / 3), (0, 1), (0, 1), (0, 1)])
    # amounts 1 and 3 -> mean 2
    assert delta_dom_avg(cur, new, Archive(), r) == pytest.approx(2.0, abs=1e-12)


def test_avg_requires_a_relation():
    cur = sol(1, 0, 0, 0, 1)
    new = [sol(0, 1, 1, 1, 0)]
    assert delta_dom_avg(cur, new, Archive(), unit_ranges()) == 0.0


# Mutually non-dominated vectors with non-dyadic components, so that the
# order of the float sum could show; members repeat them on distinct cells.
_TRADE_OFFS = [vec(0.1 * k, 0.7 - 0.1 * k, 3 - k % 3, 0, 0) for k in range(4)]


@given(st.lists(st.sampled_from(_TRADE_OFFS), min_size=1, max_size=60),
       st.lists(st.tuples(st.floats(0, 2), st.floats(0, 2), st.integers(0, 4)), min_size=1, max_size=4),
       st.lists(st.floats(0.05, 5), min_size=5, max_size=5))
@settings(deadline=None, max_examples=300)
def test_avg_grouped_equals_archive_order_sum(members, cands, widths):
    archive = archive_of(*(Solution(Placement(GridDims(1, 1), (f"P{i}",)), v)
                           for i, v in enumerate(members)))
    cur = sol(1, 1, 1, 0, 0)
    new = [sol(a, b, c, 0, 0) for a, b, c in cands]
    ranges = ranges_of([(0, w) for w in widths])
    total, count = 0.0, 0
    for s in [*archive, cur]:
        for cand in new:
            if dominates(s.objectives, cand.objectives):
                total += delta_dom(s.objectives, cand.objectives, ranges)
                count += 1
    want = total / count if count else 0.0
    assert delta_dom_avg(cur, new, archive, ranges) == pytest.approx(want, rel=1e-12, abs=1e-12)


# -- case resolution ----------------------------------------------------------


def test_case3_dominator_adopted_unconditionally():
    cur = sol(1, 1, 1, 1, 1)
    better = sol(0, 0, 0, 0, 0)
    out = _choose_next(cur, [better], Archive(), unit_ranges(), 1e-9, FakeRng(integers=[0]))
    assert out is better  # no probability draw happens even at cold temps


def test_case1_zero_survivors_keeps_cur():
    cur = sol(0, 0, 0, 0, 0)
    worse = sol(1, 1, 1, 1, 1)
    out = _choose_next(cur, [worse], Archive(), unit_ranges(), 1.0, FakeRng())
    assert out is cur


def test_case1_survivor_accepted_with_probability():
    cur = sol(0, 0, 1, 0, 0)
    dominated = sol(1, 1, 1, 0, 0)
    survivor = sol(1, 0, 0, 0, 0)  # trade-off against cur
    new = [dominated, survivor]
    win = _choose_next(cur, new, Archive(), unit_ranges(), 100.0, FakeRng(integers=[0], randoms=[0.0]))
    assert win is survivor
    lose = _choose_next(cur, new, Archive(), unit_ranges(), 100.0, FakeRng(integers=[0], randoms=[0.9]))
    assert lose is cur


def test_case2_neutral_probability_when_no_relations():
    cur = sol(1, 0, 0, 0, 1)
    other = sol(0, 1, 1, 1, 0)
    accepted = _choose_next(cur, [other], Archive(), unit_ranges(), 1e-9,
                            FakeRng(integers=[0], randoms=[0.49]))
    assert accepted is other  # probability is exactly 0.5 in the no-relation case
    rejected = _choose_next(cur, [other], Archive(), unit_ranges(), 1e-9,
                            FakeRng(integers=[0], randoms=[0.51]))
    assert rejected is cur


# -- Archive ------------------------------------------------------------------


def test_archive_total_domination(pair_netlist, topologies):
    archive = Archive()
    assert archive.insert(sol(0, 1, 0, 0, 0, grid=topologies[1]))
    assert archive.insert(sol(1, 0, 0, 0, 0, grid=topologies[2]))
    assert len(archive) == 2
    assert archive.insert(sol(0, 0, 0, 0, 0, grid=topologies[3]))
    assert [s.objectives for s in archive] == [vec(0, 0, 0, 0, 0)]


def test_archive_rejects_dominated_insert():
    archive = Archive()
    archive.insert(sol(0, 0, 0, 0, 0))
    assert not archive.insert(sol(1, 0, 0, 0, 0))
    assert len(archive) == 1


def test_archive_keeps_equal_vectors_distinct_placements(topologies):
    archive = Archive()
    assert archive.insert(sol(0, 0, 0, 0, 0, grid=topologies[1]))
    assert archive.insert(sol(0, 0, 0, 0, 0, grid=topologies[2]))
    assert not archive.insert(sol(0, 0, 0, 0, 0, grid=topologies[1]))  # exact duplicate
    assert len(archive) == 2


_GRIDS = [make_grid(["ABAB", "BABA"]), make_grid(["AABB", "BBAA"]), make_grid(["ABBA", "ABBA"])]


@given(st.lists(st.tuples(st.tuples(*[st.integers(0, 1)] * 5), st.sampled_from(_GRIDS)), max_size=40))
@settings(deadline=None, max_examples=300)
def test_archive_matches_naive_front(items):
    # 0/1 components and three placements make ties and exact duplicates common
    sols = [Solution(grid, vec(*t)) for t, grid in items]
    archive = Archive()
    for s in sols:
        archive.insert(s)
        members = [m.objectives for m in archive]
        assert archive.vector_counts() == Counter(members)
        assert list(archive.vector_counts()) == list(dict.fromkeys(members))
    expected = []
    for s in sols:
        if not any(dominates(o.objectives, s.objectives) for o in sols) and s not in expected:
            expected.append(s)
    assert archive.solutions == tuple(expected)


# -- initial_placement ---------------------------------------------------------


def test_initial_single_device_row():
    nl = Netlist((DeviceSpec("A", 4, "G", "S", "D"),), (("A", ("A",)),))
    s = initial_placement(nl, GridDims(1, 4))
    assert list(s.placement.cells) == list("AAAA")
    assert s.objectives.diffusion_breaks == 0


def test_initial_matches_exhaustive_two_devices(disjoint_pair_netlist):
    dims = GridDims(2, 4)
    s = initial_placement(disjoint_pair_netlist, dims)
    # one A|B junction per row; mirrored once: the exhaustive minimum is 2
    assert s.objectives.diffusion_breaks == 2
    assert check_cc(s.placement).is_cc


def test_initial_order_minimises_breaks():
    # B shares nets with both A and C, so the break-free chain must place B
    # in the middle; sequential netlist order (A, C, B) would break.
    nl = Netlist((
        DeviceSpec("A", 2, "GA", "n1", "n2"),
        DeviceSpec("C", 2, "GC", "n3", "n4"),
        DeviceSpec("B", 2, "GB", "n2", "n3"),
    ))
    s = initial_placement(nl, GridDims(2, 3))
    assert s.objectives.diffusion_breaks == 0


def test_initial_odd_device_needs_centre():
    odd = Netlist((DeviceSpec("A", 3, "G", "S", "D"),))
    s = initial_placement(odd, GridDims(1, 3))
    assert list(s.placement.cells) == list("AAA")
    with pytest.raises(PlacementError, match="odd"):
        initial_placement(odd, GridDims(1, 4))
    two_odd = Netlist((
        DeviceSpec("A", 3, "G", "S", "D"),
        DeviceSpec("B", 3, "G", "S", "D"),
    ))
    with pytest.raises(PlacementError, match="odd"):
        initial_placement(two_odd, GridDims(3, 3))


def test_initial_stops_at_first_break_free_order(monkeypatch):
    # every mirror device shares gate and source, so the first of the 8!
    # orders has no break and no later order is looked at: the search
    # checks one junction per device of that order and no other
    calls = []
    junction_breaks = anneal._junction_breaks

    def counting(*args):
        calls.append(args)
        return junction_breaks(*args)

    monkeypatch.setattr(anneal, "_junction_breaks", counting)
    s = initial_placement(current_mirror_netlist([2] * 8), GridDims(2, 8))
    assert len(calls) == 8
    assert s.objectives.diffusion_breaks == 0


def _naive_initial_placement(nl, dims):
    """Reference: fill and break-count every device order, keeping the first
    with the fewest breaks and stopping at one without breaks."""
    best = None
    for order in itertools.permutations(nl.devices):
        p = anneal._mirrored_fill(order, dims)
        breaks = count_diffusion_breaks(p, nl)
        if best is None or breaks < best[0]:
            best = (breaks, p)
            if breaks == 0:
                break
    return best[1]


@st.composite
def _initial_instances(draw):
    """2-6 devices of 1-3 unit pairs on nets drawn from a pool that makes them
    share often or rarely; maybe one odd device on an odd x odd grid."""
    n = draw(st.integers(2, 6))
    pool = draw(st.integers(1, 2 * n))
    odd = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    devices = tuple(
        DeviceSpec(f"D{i}", 2 * draw(st.integers(1, 3)) - (i == odd), "G",
                   f"n{draw(st.integers(0, pool - 1))}", f"n{draw(st.integers(0, pool - 1))}")
        for i in range(n))
    units = sum(d.unit_count for d in devices)
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(-(-units // rows), -(-units // rows) + 3))
    if odd is not None:
        rows, cols = rows | 1, cols | 1
    return Netlist(devices), GridDims(rows, cols)


@given(_initial_instances())
@settings(deadline=None, max_examples=200)
def test_initial_order_matches_naive_scan(case):
    nl, dims = case
    assert initial_placement(nl, dims).placement == _naive_initial_placement(nl, dims)


def test_initial_disjoint_devices_skip_the_order_scan():
    # eight two-unit devices with pairwise disjoint nets: all 8! orders
    # have 14 breaks, and the first one is found without scanning them
    nl = Netlist(tuple(DeviceSpec(f"M{i}", 2, f"G{i}", f"S{i}", f"D{i}") for i in range(8)))
    t0 = time.perf_counter()
    s = initial_placement(nl, GridDims(2, 8))
    assert time.perf_counter() - t0 < 0.05
    assert s.objectives.diffusion_breaks == 14
    assert s.placement == _naive_initial_placement(nl, GridDims(2, 8))


def test_initial_rejects_overfull_grid():
    nl = Netlist((DeviceSpec("A", 4, "G", "S", "D"),))
    with pytest.raises(PlacementError, match="fit"):
        initial_placement(nl, GridDims(1, 3))


# -- run / select ---------------------------------------------------------------


def test_run_single_device_archive_of_one():
    nl = Netlist((DeviceSpec("A", 4, "G", "S", "D"),), (("A", ("A",)),))
    archive = run(nl, GridDims(1, 4), SaConfig(seed=3))
    assert len(archive) == 1


def test_run_deterministic(pair_netlist, pair_dims):
    cfg = SaConfig(seed=42)
    a1 = run(pair_netlist, pair_dims, cfg)
    a2 = run(pair_netlist, pair_dims, cfg)
    assert a1.solutions == a2.solutions


def test_run_finds_multiple_topologies(pair_netlist, pair_dims):
    archive = run(pair_netlist, pair_dims, SaConfig(seed=7))
    vectors = {s.objectives.as_tuple() for s in archive}
    assert len(vectors) >= 2
    assert all(check_cc(s.placement).is_cc for s in archive)


def test_run_archive_on_true_frontier_small_instance():
    # three devices, two units each, exhaustively enumerable on 2x3
    from ccplace import cc_enumerate, evaluate

    nl = Netlist(
        (
            DeviceSpec("A", 2, "G", "S", "D"),
            DeviceSpec("B", 2, "G", "S", "D"),
            DeviceSpec("C", 2, "G", "S", "D"),
        ),
        (("A", ("A",)), ("B", ("B",)), ("C", ("C",))),
    )
    dims = GridDims(2, 3)
    vectors = [evaluate(p, nl) for p in cc_enumerate(nl, dims)]
    frontier = {v.as_tuple() for v in vectors if not any(dominates(o, v) for o in vectors)}
    archive = run(nl, dims, SaConfig(seed=13))
    assert all(s.objectives.as_tuple() in frontier for s in archive)


def test_run_monotone_frontier(pair_netlist, pair_dims):
    # every vector the archive ever held, evicted ones included: the
    # candidates inserted in one step are mutually non-dominated, so a vector
    # evicted within a step was held after an earlier step
    annealer = CcAnnealer(pair_netlist, pair_dims, SaConfig(seed=9))
    held = {s.objectives for s in annealer.archive}
    archive = annealer.run(
        on_iteration=lambda archive, cur, temp: held.update(s.objectives for s in archive))
    assert len(held) > len({s.objectives for s in archive})
    for v in held:
        for final in archive:
            assert not dominates(v, final.objectives)


def test_run_respects_bounds(disjoint_pair_netlist):
    cfg = SaConfig(seed=5, db_max=2, dummy_max=2)
    archive = run(disjoint_pair_netlist, GridDims(2, 4), cfg)
    for s in archive:
        assert s.objectives.diffusion_breaks <= 2
        assert s.objectives.dummy_count <= 2


def disjoint_netlist(*units):
    names = "ABCDEFGH"[:len(units)]
    return Netlist(
        tuple(DeviceSpec(x, n, f"G{x}", f"s{x}", f"d{x}") for x, n in zip(names, units)),
        tuple((x, (x,)) for x in names),
    )


def test_run_leaves_out_initial_placement_outside_bounds():
    # the start has 4 dummies; the anneal reaches a 2-dummy placement
    annealer = CcAnnealer(disjoint_netlist(2, 4), GridDims(2, 4), SaConfig(seed=1, dummy_max=2))
    assert annealer.initial.objectives.dummy_count == 4
    assert len(annealer.archive) == 0
    archive = annealer.run()
    assert len(archive) >= 1
    assert all(s.objectives.dummy_count <= 2 for s in archive)


def test_run_raises_when_no_placement_is_within_bounds():
    # the start has 2 breaks and 4 dummies, and no move from it is break-free
    annealer = CcAnnealer(disjoint_netlist(2, 2), GridDims(2, 4), SaConfig(seed=1, db_max=0))
    assert len(annealer.archive) == 0
    with pytest.raises(ValueError, match=r"db_max=0 and dummy_max=4.* 2 breaks and 4 dummies"):
        annealer.run()


def test_envelope_grows_once_per_unique_evaluation(monkeypatch):
    updates, misses = [], []
    update, evaluate = ObjectiveRanges.update, anneal.evaluate

    def counting_update(self, vec):
        updates.append(vec)
        update(self, vec)

    def counting_evaluate(*args, **kwargs):
        misses.append(args[0].cells)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(ObjectiveRanges, "update", counting_update)
    monkeypatch.setattr(anneal, "evaluate", counting_evaluate)
    annealer = CcAnnealer(cascode_diff_input_netlist([4, 4, 2, 2]), GridDims(2, 6), SaConfig(seed=1))
    annealer.run()
    seen = annealer._eval_cache
    assert len(misses) == len(set(misses)) == len(seen) == len(updates)
    assert updates == [seen[cells] for cells in misses]
    columns = list(zip(*seen.values()))
    assert annealer.ranges.bounds() == [(min(c), max(c)) for c in columns]


def test_select_singleton():
    only = sol(5, 5, 5, 5, 5)
    archive = Archive()
    archive.insert(only)
    assert select_solution(archive) is only


def test_select_projection_on_routing(topologies):
    a = sol(0, 0, 9, 0, 0, grid=topologies[1])
    b = sol(1, 1, 3, 1, 1, grid=topologies[2])
    archive = Archive()
    archive.insert(a)
    archive.insert(b)
    assert select_solution(archive, (0, 0, 1, 0, 0)) is b


def test_select_tie_breaks_lexicographically(topologies):
    a = sol(0.5, 0, 3, 0, 0, grid=topologies[1])
    b = sol(0.25, 0, 3, 0, 0, grid=topologies[2])
    archive = Archive()
    archive.insert(a)
    archive.insert(b)
    # zero weight on the only differing column: tie, lexicographic order wins
    assert select_solution(archive, (0, 1, 1, 1, 1)) is b


def test_select_affine_rescale_invariant(topologies):
    base = [(0.0, 1.0, 7, 0, 0), (1.0, 0.0, 3, 0, 0), (0.5, 0.5, 5, 0, 0)]
    grids = [topologies[1], topologies[2], topologies[3]]
    weights = (2.0, 1.0, 1.0, 0.0, 0.0)

    def build(scale, shift):
        archive = Archive()
        for t, g in zip(base, grids):
            scaled = (t[0], t[1], t[2] * scale + shift, t[3], t[4])
            archive.insert(Solution(g, vec(*scaled)))
        return archive

    plain = select_solution(build(1, 0), weights)
    scaled = select_solution(build(4, 32), weights)
    assert plain.placement == scaled.placement


def test_select_empty_archive_errors():
    with pytest.raises(ValueError, match="empty"):
        select_solution(Archive())


def test_config_validation():
    with pytest.raises(ValueError):
        SaConfig(t_max=1.0, t_min=2.0)
    with pytest.raises(ValueError):
        SaConfig(alpha=1.0)
    with pytest.raises(ValueError):
        SaConfig(iters_per_temp=0)
    with pytest.raises(ValueError):
        SaConfig(seed=-1)
    with pytest.raises(ValueError, match="db_max"):
        SaConfig(db_max=-1)
    with pytest.raises(ValueError, match="dummy_max"):
        SaConfig(dummy_max=-1)
    with pytest.raises(ValueError):
        SaConfig(selection_weights=(1, 2, 3))


def test_config_refuses_schedule_over_step_cap():
    # the default schedule has 21 levels: 47,619 iterations each stay within
    # the cap, 47,620 do not
    SaConfig(iters_per_temp=47_619)
    with pytest.raises(ValueError, match=r"1,000,020 steps \(21 levels x 47,620 iterations\).*1,000,000"):
        SaConfig(iters_per_temp=47_620)
    with pytest.raises(ValueError, match="6,953,806,911,200 steps"):
        SaConfig(alpha=0.99999999, t_min=1e-300)
    SaConfig(alpha=0.5, t_min=5e-324)  # t_min / t_max would underflow to 0
    with pytest.raises(ValueError, match="t_max"):
        SaConfig(t_max=math.inf)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            SaConfig(selection_weights=(bad, 1, 1, 1, 1))


# Seeded archives of four instances at SaConfig(seed=1): label exchanges
# (cdip), an odd centre unit (cm 3,2,4 on 3x3) and a bound that rejects every
# candidate (CDLP:1).  The digest covers each member's cell labels and
# objective vector, and the selected index; a refactor of the search must
# leave it unchanged.
PINNED_ARCHIVES = "ae0dfd9b2d32c2fdfbfbeb7c1a7a96887a008da18ab49fa64efb2217269ad843"


def test_seeded_archives_are_pinned():
    cdlp = find_case("table2", "CDLP:1")
    instances = [
        (current_mirror_netlist([2, 2, 4]), GridDims(2, 4)),
        (cascode_diff_input_netlist([4, 4, 2, 2]), GridDims(2, 6)),
        (current_mirror_netlist([3, 2, 4]), GridDims(3, 3)),
        (cdlp.netlist(), cdlp.dims()),
    ]
    h = hashlib.sha256()
    for nl, dims in instances:
        sols = list(run(nl, dims, SaConfig(seed=1)))
        doc = {
            "members": [
                [list(s.placement.cells), list(s.objectives.as_tuple())]
                for s in sols
            ],
            "selected": sols.index(select_solution(sols)),
        }
        h.update(json.dumps(doc).encode())
    assert h.hexdigest() == PINNED_ARCHIVES
