"""The junction cache and the domination memo return what a fresh
computation returns, and are filled and emptied when they should be."""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ccplace import (
    Archive,
    CcAnnealer,
    DeviceSpec,
    GridDims,
    Netlist,
    Placement,
    SaConfig,
    break_positions,
    cascode_diff_input_netlist,
    count_diffusion_breaks,
    count_dummies,
    current_mirror_netlist,
    delta_dom_avg,
    dummy_positions,
    run,
)
from ccplace import anneal, placement

# The instances of perfbench's small_exact workload.
SMALL_EXACT = [
    (current_mirror_netlist([4, 4, 4]), GridDims(2, 6)),
    (current_mirror_netlist([4, 4, 4]), GridDims(4, 3)),
    (current_mirror_netlist([2, 2, 2, 6]), GridDims(3, 4)),
    (current_mirror_netlist([2, 4, 6]), GridDims(2, 6)),
    (current_mirror_netlist([2, 2, 4]), GridDims(2, 4)),
    (cascode_diff_input_netlist([4, 4, 2, 2]), GridDims(2, 6)),
]


# -- junction cache -------------------------------------------------------------


@given(st.data(), st.integers(1, 4), st.integers(1, 6), st.integers(1, 4))
@settings(deadline=None, max_examples=300)
def test_cached_junction_counts_match_positions(data, rows, cols, k):
    nets = st.sampled_from(["n1", "n2", "n3", "n4"])
    nl = Netlist(tuple(DeviceSpec(name, 1, "G", data.draw(nets), data.draw(nets)) for name in "ABCD"[:k]))
    labels = st.sampled_from(list("ABCD"[:k]) + [None])
    grids = data.draw(st.lists(st.lists(labels, min_size=rows * cols, max_size=rows * cols),
                               min_size=1, max_size=3))
    places = [Placement(GridDims(rows, cols), tuple(cells)) for cells in grids]
    # any order of break and dummy queries, repeated, over placements sharing one cache
    calls = data.draw(st.lists(st.tuples(st.integers(0, len(places) - 1), st.booleans()),
                               min_size=1, max_size=8))
    cache: dict = {}
    for i, dummies in calls:
        p = places[i]
        if dummies:
            assert count_dummies(p, nl, cache=cache) == len(dummy_positions(p, nl))
        else:
            assert count_diffusion_breaks(p, nl, cache=cache) == len(break_positions(p, nl))
    assert set(cache) == {places[i].cells for i, _ in calls}


def test_junctions_are_scanned_once_per_cell_tuple(monkeypatch):
    scanned = Counter()
    scan = placement.break_positions

    def counting(p, nl):
        scanned[p.cells] += 1
        return scan(p, nl)

    monkeypatch.setattr(placement, "break_positions", counting)
    annealer = CcAnnealer(cascode_diff_input_netlist([4, 4, 2, 2]), GridDims(2, 6), SaConfig(seed=1))
    annealer.run()
    assert scanned and max(scanned.values()) == 1
    assert set(scanned) == set(annealer._junction_cache)


# -- domination memo ------------------------------------------------------------


def test_memoised_domination_averages_equal_fresh_ones(monkeypatch):
    choose = anneal._choose_next
    hits = checked = 0

    def checking(cur, new_pts, archive, ranges, temp, rng, memo=None):
        nonlocal hits, checked
        key = (cur.objectives, *(s.objectives for s in new_pts))
        hits += key in memo
        nxt = choose(cur, new_pts, archive, ranges, temp, rng, memo)
        if key in memo:
            assert memo[key] == delta_dom_avg(cur, new_pts, archive, ranges)
            checked += 1
        return nxt

    monkeypatch.setattr(anneal, "_choose_next", checking)
    for nl, dims in SMALL_EXACT:
        run(nl, dims, SaConfig(seed=1))
    assert 0 < hits < checked


# A step from the cdip start under this seed has candidates the archive admits.
STEP_SEED = 1


def _warm_annealer():
    """An annealer after one ``STEP_SEED`` step from its initial placement."""
    annealer = CcAnnealer(cascode_diff_input_netlist([4, 4, 2, 2]), GridDims(2, 6), SaConfig(seed=1))
    annealer.step(annealer.initial, 1.0, np.random.default_rng(STEP_SEED))
    return annealer


def test_archive_admission_empties_domination_memo():
    annealer = _warm_annealer()
    evaluated = len(annealer._eval_cache)
    # replay the step into an empty archive: every evaluation hits, every insert is admitted
    annealer.archive = Archive()
    annealer._dom_memo["sentinel"] = 0.0
    annealer.step(annealer.initial, 1.0, np.random.default_rng(STEP_SEED))
    assert len(annealer._eval_cache) == evaluated
    assert len(annealer.archive) > 0
    assert "sentinel" not in annealer._dom_memo
    # replay it once more: the archive holds every candidate, so nothing is admitted
    members = annealer.archive.solutions
    annealer._dom_memo["sentinel"] = 0.0
    annealer.step(annealer.initial, 1.0, np.random.default_rng(STEP_SEED))
    assert annealer.archive.solutions == members
    assert "sentinel" in annealer._dom_memo


def test_evaluation_miss_empties_domination_memo():
    annealer = _warm_annealer()
    cells = annealer.initial.placement.cells
    fresh = Placement(annealer.dims, cells[1:] + cells[:1])
    assert fresh.cells not in annealer._eval_cache
    annealer._dom_memo["sentinel"] = 0.0
    annealer.evaluate(fresh)
    assert annealer._dom_memo == {}
    annealer._dom_memo["sentinel"] = 0.0
    annealer.evaluate(fresh)
    annealer.evaluate(annealer.initial.placement)
    assert "sentinel" in annealer._dom_memo
