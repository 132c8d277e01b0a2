from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccplace import (
    DeviceSpec,
    GridDims,
    Netlist,
    Placement,
    PlacementError,
    break_positions,
    cascode_diff_input_netlist,
    check_cc,
    count_diffusion_breaks,
    count_dummies,
    current_mirror_netlist,
    dummy_positions,
    enumerate_perturbations,
    initial_placement,
    swap_mirrored,
    transform_xx180,
    transform_xy180,
)
from ccplace.oracle import cc_enumerate, pattern_classes

from conftest import FakeRng, make_grid


# -- check_cc ---------------------------------------------------------------


def test_check_cc_checkerboard():
    p = make_grid(["AB", "BA"])
    rep = check_cc(p)
    assert rep.centroids["A"] == (Fraction(3, 2), Fraction(3, 2))
    assert rep.centroids["B"] == rep.center == (Fraction(3, 2), Fraction(3, 2))
    assert rep.is_cc


def test_check_cc_clustered_halves():
    rep = check_cc(make_grid(["AABB"]))
    assert rep.centroids["A"] == (Fraction(3, 2), Fraction(1))
    assert rep.centroids["B"] == (Fraction(7, 2), Fraction(1))
    assert rep.center == (Fraction(5, 2), Fraction(1))
    assert not rep.is_cc


def test_check_cc_mirrored_row():
    rep = check_cc(make_grid(["ABBA"]))
    assert rep.centroids["A"] == rep.centroids["B"] == rep.center
    assert rep.is_cc


def _naive_cc(p):
    """(centroids, center, is_cc) from each device's Fraction mean position,
    with devices in row-major order of first appearance."""
    positions = {}
    for y in range(1, p.dims.rows + 1):
        for x in range(1, p.dims.cols + 1):
            if p.at(x, y) is not None:
                positions.setdefault(p.at(x, y), []).append((x, y))
    centroids = {d: (Fraction(sum(x for x, _ in pts), len(pts)), Fraction(sum(y for _, y in pts), len(pts)))
                 for d, pts in positions.items()}
    center = (Fraction(p.dims.cols + 1, 2), Fraction(p.dims.rows + 1, 2))
    return centroids, center, all(c == center for c in centroids.values())


@given(st.data(), st.integers(1, 4), st.integers(1, 5), st.integers(1, 4), st.booleans(), st.booleans())
@settings(deadline=None, max_examples=400)
def test_check_cc_matches_naive_centroids(data, rows, cols, k, mirrored, fill_centre):
    # mirrored arrangements (each cell equal to its 180-degree image) are CC,
    # so both verdicts come up; an odd x odd grid may get its centre filled
    labels = st.sampled_from(list("ABCD"[:k]) + [None])
    n = rows * cols
    cells = [data.draw(labels) for _ in range(n)]
    if mirrored:
        cells[n - n // 2:] = cells[:n // 2][::-1]
    if fill_centre and n % 2:
        cells[n // 2] = data.draw(st.sampled_from("ABCD"[:k]))
    p = Placement(GridDims(rows, cols), tuple(cells))
    rep = check_cc(p)
    centroids, center, is_cc = _naive_cc(p)
    assert list(rep.centroids.items()) == list(centroids.items())
    assert rep.center == center
    assert rep.is_cc == is_cc


# -- diffusion breaks -------------------------------------------------------


def test_single_device_row_no_breaks():
    nl = Netlist((DeviceSpec("A", 4, "G", "S", "D"),))
    assert count_diffusion_breaks(make_grid(["AAAA"]), nl) == 0


def test_disjoint_pair_one_break():
    nl = Netlist((
        DeviceSpec("A", 1, "GA", "n1", "n2"),
        DeviceSpec("B", 1, "GB", "n3", "n4"),
    ))
    p = make_grid(["AB"])
    assert count_diffusion_breaks(p, nl) == 1
    assert break_positions(p, nl) == {(1, 1)}


def test_chained_shared_nets_no_break():
    # A-B-C where consecutive devices share one diffusion net
    nl = Netlist((
        DeviceSpec("A", 1, "GA", "n1", "n2"),
        DeviceSpec("B", 1, "GB", "n2", "n3"),
        DeviceSpec("C", 1, "GC", "n3", "n4"),
    ))
    assert count_diffusion_breaks(make_grid(["ABC"]), nl) == 0


def test_empty_cells_break_free():
    nl = Netlist((
        DeviceSpec("A", 2, "GA", "n1", "n2"),
        DeviceSpec("B", 2, "GB", "n3", "n4"),
    ))
    assert count_diffusion_breaks(make_grid(["A B", "B A"]), nl) == 0


def test_breaks_only_horizontal():
    nl = Netlist((
        DeviceSpec("A", 1, "GA", "n1", "n2"),
        DeviceSpec("B", 1, "GB", "n3", "n4"),
    ))
    assert count_diffusion_breaks(make_grid(["A", "B"]), nl) == 0


def _naive_break_positions(p, nl):
    """Every pair of horizontally adjacent units whose devices share no
    diffusion net, read from each ``DeviceSpec``."""
    specs = {d.name: d for d in nl.devices}
    for c in p.cells:
        if c is not None and c not in specs:
            raise PlacementError(f"device {c!r} is not in the netlist")
    out = set()
    for y in range(1, p.dims.rows + 1):
        for x in range(1, p.dims.cols):
            left, right = p.at(x, y), p.at(x + 1, y)
            if (left is not None and right is not None
                    and not specs[left].diffusion_nets & specs[right].diffusion_nets):
                out.add((x, y))
    return out


@given(st.data(), st.integers(1, 4), st.integers(1, 6), st.integers(1, 4), st.booleans())
@settings(deadline=None, max_examples=300)
def test_break_positions_matches_naive_reference(data, rows, cols, k, unknown):
    nets = st.sampled_from(["n1", "n2", "n3", "n4"])
    nl = Netlist(tuple(DeviceSpec(name, 1, "G", data.draw(nets), data.draw(nets)) for name in "ABCD"[:k]))
    labels = st.sampled_from(list("ABCD"[:k]) + [None])
    cells = [data.draw(labels) for _ in range(rows * cols)]
    if unknown:
        cells[data.draw(st.integers(0, rows * cols - 1))] = "Z"
    p = Placement(GridDims(rows, cols), tuple(cells))
    try:
        want = _naive_break_positions(p, nl)
    except PlacementError as exc:
        with pytest.raises(PlacementError) as err:
            break_positions(p, nl)
        assert str(err.value) == str(exc)
    else:
        assert break_positions(p, nl) == want


# -- dummies ----------------------------------------------------------------


def test_no_breaks_no_dummies(pair_netlist):
    assert count_dummies(make_grid(["AABB", "BBAA"]), pair_netlist) == 0


def test_central_gap_is_own_closure():
    # A gap is mirror-fixed horizontally only on an even column count, and
    # vertically only on an odd row count: 3x4 hosts a fully fixed gap.
    nl = Netlist((
        DeviceSpec("A", 2, "GA", "n1", "n2"),
        DeviceSpec("B", 2, "GB", "n3", "n4"),
    ))
    p = make_grid(["    ", "AABB", "    "])
    assert break_positions(p, nl) == {(2, 2)}
    assert count_dummies(p, nl) == 1


def test_generic_gap_closure_is_four():
    nl = Netlist((
        DeviceSpec("A", 1, "GA", "n1", "n2"),
        DeviceSpec("B", 3, "GB", "n3", "n4"),
    ))
    p = make_grid(["ABBB", "    "])
    assert break_positions(p, nl) == {(1, 1)}
    assert count_dummies(p, nl) == 4


def test_dummy_positions_symmetry_invariant(disjoint_pair_netlist):
    p = make_grid(["ABAB", "BABA"])
    pos = dummy_positions(p, disjoint_pair_netlist)
    rows, cols = p.dims.rows, p.dims.cols

    def mirror_x(e):
        x, y = e
        return (cols - x, y)  # gap x sits between columns x and x+1

    def mirror_y(e):
        x, y = e
        return (x, rows + 1 - y)

    assert {mirror_x(e) for e in pos} == set(pos)
    assert {mirror_y(e) for e in pos} == set(pos)
    assert {mirror_x(mirror_y(e)) for e in pos} == set(pos)


# -- validate ---------------------------------------------------------------


def test_validate_names_the_wrong_device(pair_netlist, topologies):
    topologies[1].validate(pair_netlist)
    with pytest.raises(PlacementError, match="'B': 3 units placed, the netlist has 4"):
        make_grid(["ABAB", "BAA "]).validate(pair_netlist)
    with pytest.raises(PlacementError, match="'C' does not belong"):
        make_grid(["ABAB", "BABA", "CC  "]).validate(pair_netlist)


# -- swap_mirrored ----------------------------------------------------------


def test_swap_identity(topologies):
    p = topologies[2]
    assert swap_mirrored(p, (1, 1), (1, 1)) == p


def test_swap_mirrors_second_half():
    p = make_grid(["AABB", "BBAA"])
    q = swap_mirrored(p, (2, 1), (3, 1))
    assert list(q.cells[:4]) == list("ABAB")
    assert list(q.cells[4:]) == list("BABA")


def test_swap_rejects_second_half_and_fillers():
    p = make_grid(["AABB", "BBAA"])
    with pytest.raises(PlacementError, match="first half"):
        swap_mirrored(p, (1, 1), (1, 2))
    holey = make_grid(["A B ", " B A"])
    with pytest.raises(PlacementError, match="unit"):
        swap_mirrored(holey, (1, 1), (2, 1))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_swap_involution_and_cc(data):
    devices = data.draw(st.integers(2, 4))
    per = data.draw(st.integers(1, 3))
    cols = devices * per
    half = [chr(ord("A") + d) for d in range(devices) for _ in range(per)]
    p = transform_xx180(half, GridDims(2, cols))
    spots = [i for i in range(cols)]
    a = p.coord(data.draw(st.sampled_from(spots)))
    b = p.coord(data.draw(st.sampled_from(spots)))
    q = swap_mirrored(p, a, b)
    assert swap_mirrored(q, a, b) == p  # involution
    assert check_cc(q).is_cc  # label-symmetric placements stay CC
    # unit conservation
    assert sorted(q.cells) == sorted(p.cells)


# -- transform_xx180 --------------------------------------------------------


def test_xx180_two_cell_row():
    p = transform_xx180(["A", "B"], GridDims(1, 4))
    assert list(p.cells) == list("ABBA")
    assert check_cc(p).is_cc


def test_xx180_label_symmetric_by_construction():
    p = transform_xx180(["A", "A", "B", "B", "C", "C"], GridDims(2, 6))
    n = p.dims.cells
    for i in range(n):
        assert p.cells[i] == p.cells[n - 1 - i]
    assert check_cc(p).is_cc


def test_xx180_slack_sits_in_the_middle():
    p = transform_xx180(["A", "B"], GridDims(1, 6))
    assert list(p.cells) == ["A", "B", None, None, "B", "A"]
    assert check_cc(p).is_cc


def test_xx180_errors():
    with pytest.raises(PlacementError, match="mirrored"):
        transform_xx180(["A", "A", "A"], GridDims(1, 4))


# -- transform_xy180 --------------------------------------------------------


def test_xy180_relabel_second_half():
    p = make_grid(["ABBA"])
    q = transform_xy180(p, "A", "B")
    assert list(q.cells) == list("ABAB")


def test_xy180_involution(topologies):
    for p in topologies.values():
        assert transform_xy180(transform_xy180(p, "A", "B"), "A", "B") == p


def test_xy180_errors():
    p = make_grid(["ABBA"])
    with pytest.raises(PlacementError, match="distinct"):
        transform_xy180(p, "A", "A")
    q = make_grid(["ABBB"])
    with pytest.raises(PlacementError, match="equal unit counts"):
        transform_xy180(q, "A", "B")


def test_xy180_single_pair_stays_cc_after_swap():
    # Four devices, four units each.  On the symmetric base every exchange
    # keeps the common centroid; after a random swap (A <=> C) only the one
    # pair whose first-half position sums still match does.
    pairs = [("A", "B"), ("A", "C"), ("A", "D"), ("B", "C"), ("B", "D"), ("C", "D")]
    base = transform_xx180(list("ABCDDCBA"), GridDims(2, 8))
    assert all(check_cc(transform_xy180(base, x, y)).is_cc for x, y in pairs)
    swapped = swap_mirrored(base, (1, 1), (3, 1))
    assert check_cc(swapped).is_cc
    cc_pairs = [(x, y) for x, y in pairs if check_cc(transform_xy180(swapped, x, y)).is_cc]
    assert cc_pairs == [("B", "D")]


# -- enumerate_perturbations ------------------------------------------------


def test_enumerate_swap_plus_label_exchange(pair_netlist, topologies):
    # scripted swap of cells (2,1) and (3,1) on AABB/BBAA gives ABAB/BABA;
    # the A/B exchange on it is non-CC and must be filtered.
    rng = FakeRng(integers=[1, 1])
    out = enumerate_perturbations(topologies[2], pair_netlist, rng)
    assert [p.cells for p in out] == [topologies[1].cells]


def test_enumerate_no_equal_counts_only_swap():
    nl = Netlist((
        DeviceSpec("A", 2, "G", "S", "D"),
        DeviceSpec("B", 4, "G", "S", "D"),
    ))
    p = transform_xx180(["A", "B", "B"], GridDims(2, 3))
    out = enumerate_perturbations(p, nl, FakeRng(integers=[0, 0]))
    assert len(out) == 1  # no label-exchange partner for unequal counts


def test_enumerate_bound_filter_can_empty(disjoint_pair_netlist, topologies):
    # swapping (2,1)x(3,1) on AABB/BBAA interleaves the devices: 6 breaks,
    # above the bound of 2; the A/B exchange variant is non-CC.
    rng = FakeRng(integers=[1, 1])
    out = enumerate_perturbations(topologies[2], disjoint_pair_netlist, rng,
                                  db_max=2, dummy_max=2)
    assert out == []


def test_enumerate_exchange_restores_cc_of_a_non_cc_swap(pair_netlist, topologies):
    # swapping (1,1) and (2,1) on ABBA/BAAB leaves both devices off centre;
    # the A/B exchange of the second half puts them back
    rng = FakeRng(integers=[0, 0])
    base = swap_mirrored(topologies[4], (1, 1), (2, 1))
    assert not check_cc(base).is_cc
    out = enumerate_perturbations(topologies[4], pair_netlist, rng)
    assert [p.cells for p in out] == [make_grid(["BABA", "ABAB"]).cells]


def _netlist(*devices):
    return Netlist(tuple(DeviceSpec(name, units, "G", src, drn) for name, units, src, drn in devices))


def test_enumerate_off_centre_bystander_vetoes_every_exchange():
    # C sits off centre and the A/A swap leaves it there.  Exchanging A and
    # B centres both of them (their half sums are equal), yet C still
    # makes the candidate non-CC.
    nl = _netlist(("A", 4, "S", "D"), ("B", 4, "S", "D"), ("C", 2, "S", "D"))
    p = make_grid(["ABC BA", "ABC BA"])
    assert enumerate_perturbations(p, nl, FakeRng(integers=[0, 3])) == []
    exchanged = transform_xy180(p, "A", "B")
    assert check_cc(exchanged).centroids["A"] == check_cc(exchanged).center
    assert not check_cc(exchanged).is_cc


# Instances for the differential test: shared and disjoint diffusion nets
# (so the bounds bite), empty cells, and odd grids with a centre device,
# which in the last one can take part in a label exchange.
_DIFF_INSTANCES = [
    (_netlist(("A", 4, "S", "D"), ("B", 4, "S", "D")), GridDims(2, 4)),
    (_netlist(("A", 2, "n1", "n2"), ("B", 2, "n1", "n3"), ("C", 2, "n4", "n5"), ("D", 2, "n4", "n6")),
     GridDims(2, 4)),
    (_netlist(("A", 2, "n1", "n2"), ("B", 2, "n3", "n4"), ("C", 2, "n1", "n5")), GridDims(2, 4)),
    (_netlist(("A", 4, "n1", "n2"), ("B", 4, "n1", "n3"), ("C", 4, "n4", "n5")), GridDims(2, 6)),
    (_netlist(("A", 3, "n1", "n2"), ("B", 2, "n1", "n3"), ("C", 2, "n4", "n5"), ("D", 2, "n2", "n4")),
     GridDims(3, 3)),
    (_netlist(("A", 1, "n1", "n2"), ("B", 4, "n1", "n3"), ("C", 4, "n4", "n5")), GridDims(3, 3)),
    (_netlist(("A", 3, "n1", "n2"), ("B", 3, "n1", "n3"), ("C", 3, "n4", "n5")), GridDims(3, 3)),
]


@cache
def _cc_placements(k):
    return cc_enumerate(*_DIFF_INSTANCES[k])


def _naive_perturbations(p, nl, rng, db_max, dummy_max):
    """Build every candidate, dedup, then the naive CC test, then the bounds."""
    half = p.dims.cells // 2
    spots = [i for i in range(half) if isinstance(p.cells[i], str)]
    if len(spots) < 2:
        return []
    i = int(rng.integers(len(spots)))
    j = int(rng.integers(len(spots) - 1))
    if j >= i:
        j += 1
    base = swap_mirrored(p, p.coord(spots[i]), p.coord(spots[j]))
    candidates = [base] + [
        transform_xy180(base, a.name, b.name)
        for ai, a in enumerate(nl.devices) for b in nl.devices[ai + 1:]
        if a.unit_count == b.unit_count
    ]
    out = []
    seen = {p.cells}
    for cand in candidates:
        if cand.cells in seen:
            continue
        seen.add(cand.cells)
        if not _naive_cc(cand)[2]:
            continue
        if db_max is not None and count_diffusion_breaks(cand, nl) > db_max:
            continue
        if dummy_max is not None and count_dummies(cand, nl) > dummy_max:
            continue
        out.append(cand)
    return out


@given(st.data(), st.integers(0, len(_DIFF_INSTANCES) - 1), st.booleans(), st.integers(0, 2**32 - 1),
       st.sampled_from([None, 0, 2]), st.sampled_from([None, 0, 2]))
@settings(deadline=None, max_examples=400)
def test_enumerate_matches_naive_reference(data, k, cc, seed, db_max, dummy_max):
    # p is a CC placement, or any arrangement: an off-centre device that the
    # swap leaves alone must still veto every candidate
    nl, dims = _DIFF_INSTANCES[k]
    if cc:
        placements = _cc_placements(k)
        p = placements[data.draw(st.integers(0, len(placements) - 1))]
    else:
        units = [d.name for d in nl.devices for _ in range(d.unit_count)]
        p = Placement(dims, tuple(data.draw(st.permutations(units + [None] * (dims.cells - len(units))))))
    got = enumerate_perturbations(p, nl, np.random.default_rng(seed), db_max, dummy_max)
    want = _naive_perturbations(p, nl, np.random.default_rng(seed), db_max, dummy_max)
    assert got == want


# The small_exact benchmark instances, and two odd grids with a centre device.
_WALK_INSTANCES = [
    (current_mirror_netlist([4, 4, 4]), GridDims(2, 6)),
    (current_mirror_netlist([4, 4, 4]), GridDims(4, 3)),
    (current_mirror_netlist([2, 2, 2, 6]), GridDims(3, 4)),
    (current_mirror_netlist([2, 4, 6]), GridDims(2, 6)),
    (current_mirror_netlist([2, 2, 4]), GridDims(2, 4)),
    (cascode_diff_input_netlist([4, 4, 2, 2]), GridDims(2, 6)),
    _DIFF_INSTANCES[4],
    _DIFF_INSTANCES[5],
]


@given(st.integers(0, len(_WALK_INSTANCES) - 1), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_enumerate_cache_matches_uncached_walk(k, seed):
    # A random walk that revisits placements, so that swaps recur; one
    # cache serves every call, whatever its bounds
    nl, dims = _WALK_INSTANCES[k]
    walk = np.random.default_rng(seed)
    rng_cached, rng_plain = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
    cache: dict = {}
    p = initial_placement(nl, dims).placement
    for calls in range(1, 151):
        db_max, dummy_max = (None, 0, 2)[walk.integers(3)], (None, 0, 2)[walk.integers(3)]
        got = enumerate_perturbations(p, nl, rng_cached, db_max, dummy_max, cache=cache)
        want = enumerate_perturbations(p, nl, rng_plain, db_max, dummy_max)
        assert got == want
        assert rng_cached.bit_generator.state == rng_plain.bit_generator.state
        assert len(cache) <= calls
        if got:
            p = got[walk.integers(len(got))]


def test_enumerate_cache_keys_the_unordered_swap():
    nl, dims = _WALK_INSTANCES[4]  # cm-2-2-4 on 2x4: four first-half units
    p = initial_placement(nl, dims).placement
    cache: dict = {}
    # draws (0, 0) and (1, 0) pick spots 0 and 1 in either order
    first = enumerate_perturbations(p, nl, FakeRng(integers=[0, 0]), cache=cache)
    assert list(cache) == [(p.cells, 0, 1)]
    first.clear()  # the caller owns the returned list, not the cache
    again = enumerate_perturbations(p, nl, FakeRng(integers=[1, 0]), cache=cache)
    assert again == enumerate_perturbations(p, nl, FakeRng(integers=[1, 0]))
    assert len(cache) == 1


def test_enumerate_drops_noop_same_device_swap(pair_netlist, topologies):
    rng = FakeRng(integers=[0, 0])  # cells (1,1) and (2,1): both device A
    out = enumerate_perturbations(topologies[2], pair_netlist, rng)
    assert topologies[2].cells not in [p.cells for p in out]


def test_transformation_family_has_six_patterns(pair_netlist, topologies):
    """All swaps and label exchanges over the CC family produce exactly six
    patterns, four of which are common-centroid."""
    seen = set()
    cc_flags = {}
    for p in topologies.values():
        half_spots = [i for i in range(p.dims.cells // 2)]
        for ai in half_spots:
            for bi in half_spots:
                if ai == bi:
                    continue
                base = swap_mirrored(p, p.coord(ai), p.coord(bi))
                for cand in (base, transform_xy180(base, "A", "B")):
                    seen.add(cand.cells)
                    cc_flags[cand.cells] = check_cc(cand).is_cc
    placements = [Placement(topologies[1].dims, grid) for grid in seen]
    classes = pattern_classes(placements, pair_netlist)
    assert len(classes) == 6
    cc_classes = [
        cls for cls in classes if cc_flags[cls[0].cells]
    ]
    assert len(cc_classes) == 4
