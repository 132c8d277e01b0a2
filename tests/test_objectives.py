import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccplace import (
    DeviceSpec,
    GridDims,
    Netlist,
    ObjectiveRanges,
    ObjectiveVector,
    Placement,
    delta_dom,
    dispersion,
    dominates,
    evaluate,
    inv_wpe,
    lde_mismatch,
)

from conftest import make_grid, ranges_of


# -- dispersion -------------------------------------------------------------


def test_dispersion_checkerboard_is_one():
    assert dispersion(make_grid(["AB", "BA"])) == 1


def test_dispersion_row_examples():
    assert dispersion(make_grid(["ABAB"])) == 1
    assert dispersion(make_grid(["AABB"])) == Fraction(-1, 3)


def test_dispersion_single_device_is_minus_one():
    assert dispersion(make_grid(["AAA", "AAA"])) == -1


def test_dispersion_1x1_errors():
    with pytest.raises(ValueError, match="1x1"):
        dispersion(make_grid(["A"]))


def test_dispersion_filler_edges_count_zero():
    # edges touching empty cells never count as OK; the two vertical A-B edges do
    assert dispersion(make_grid(["A B", "B A"])) == Fraction(2 * 2 - 7, 7)


# -- inv_wpe ----------------------------------------------------------------


def test_inv_wpe_diagonal_pair():
    p = make_grid(["AB", "BA"])
    assert inv_wpe(p, "A") == 6  # 3 per unit on a 2x2 grid


def test_inv_wpe_single_cell_grid():
    p = Placement(GridDims(1, 1), ("A",))
    assert inv_wpe(p, "A") == 4


def test_inv_wpe_rotation_invariant():
    rng = random.Random(5)
    for _ in range(25):
        rows, cols = rng.randint(1, 4), rng.randint(2, 6)
        labels = [rng.choice("AB") for _ in range(rows * cols)]
        cells = tuple(labels)
        p = Placement(GridDims(rows, cols), cells)
        q = Placement(GridDims(rows, cols), tuple(reversed(cells)))
        for dev in "AB":
            if any(lbl == dev for lbl in labels):
                assert inv_wpe(p, dev) == inv_wpe(q, dev)


def test_inv_wpe_missing_device_errors():
    with pytest.raises(ValueError, match="'B'"):
        inv_wpe(make_grid(["AA"]), "B")


# -- lde_mismatch -----------------------------------------------------------


def test_lde_checkerboard_zero(pair_netlist):
    p = make_grid(["AB", "BA"])
    nl = Netlist((
        DeviceSpec("A", 2, "G", "S", "D"),
        DeviceSpec("B", 2, "G", "S", "D"),
    ))
    assert lde_mismatch(p, nl) == 0


def test_lde_rotated_pair_contributes_zero():
    # B's units are the 180-degree image of A's units
    nl = Netlist((
        DeviceSpec("A", 2, "G", "S", "D"),
        DeviceSpec("B", 2, "G", "S", "D"),
    ))
    assert lde_mismatch(make_grid(["AB", "AB"]), nl) == 0


def test_lde_single_device_zero():
    nl = Netlist((DeviceSpec("A", 4, "G", "S", "D"),))
    assert lde_mismatch(make_grid(["AA", "AA"]), nl) == 0


def test_lde_only_topology_three_nonzero(pair_netlist, topologies):
    values = {k: lde_mismatch(p, pair_netlist) for k, p in topologies.items()}
    assert values[1] == values[2] == values[4] == 0
    assert values[3] == Fraction(5, 12)


@st.composite
def lde_cases(draw):
    """A placement on a grid up to 8x8 with 1-4 devices of unequal unit
    counts and empty cells, plus the netlist of what it holds."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    n_cells = rows * cols
    n_dev = draw(st.integers(1, min(4, n_cells)))
    labels = draw(st.lists(st.integers(-2, n_dev - 1), min_size=n_cells, max_size=n_cells))
    firsts = draw(st.lists(st.integers(0, n_cells - 1), min_size=n_dev, max_size=n_dev, unique=True))
    for d, i in enumerate(firsts):
        labels[i] = d
    counts = [0] * n_dev
    cells = []
    for lab in labels:
        if lab < 0:
            cells.append(None)
        else:
            cells.append(f"M{lab}")
            counts[lab] += 1
    nl = Netlist(tuple(DeviceSpec(f"M{d}", n, "G", "S", "D") for d, n in enumerate(counts)))
    return Placement(GridDims(rows, cols), tuple(cells)), nl


@given(lde_cases())
@settings(deadline=None, max_examples=300)
def test_lde_matches_textbook_fraction_sums(case):
    p, nl = case
    r, c = p.dims.cols, p.dims.rows
    means = []
    for d in nl.devices:
        total = Fraction(0)
        for i, cell in enumerate(p.cells):
            if cell == d.name:
                x, y = i % r + 1, i // r + 1
                total += Fraction(1, x) + Fraction(1, r + 1 - x) + Fraction(1, y) + Fraction(1, c + 1 - y)
        assert inv_wpe(p, d.name) == total
        means.append(total / d.unit_count)
    expected = sum(
        (abs(means[k] - means[m]) for k in range(len(means)) for m in range(k + 1, len(means))),
        Fraction(0),
    )
    got = lde_mismatch(p, nl)
    assert isinstance(got, Fraction)
    assert got == expected
    assert float(got) == float(expected)


# -- evaluate ---------------------------------------------------------------


def test_evaluate_checkerboard_composition():
    nl = Netlist(
        (DeviceSpec("A", 2, "G", "S", "D"), DeviceSpec("B", 2, "G", "S", "D")),
        (("A", ("A",)), ("B", ("B",))),
    )
    vec = evaluate(make_grid(["AB", "BA"]), nl)
    assert vec == ObjectiveVector(-1.0, 0.0, 4, 0, 0)  # two diagonal 2-pin nets


def test_evaluate_deterministic(pair_netlist, topologies):
    assert evaluate(topologies[3], pair_netlist) == evaluate(topologies[3], pair_netlist)


def test_evaluate_rot180_invariant():
    rng = random.Random(11)
    netlists = [
        Netlist(
            (DeviceSpec("A", 4, "G", "S", "D"), DeviceSpec("B", 4, "G", "S", "D")),
            (("A", ("A",)), ("B", ("B",))),
        ),
        Netlist(
            (DeviceSpec("A", 4, "GA", "n1", "n2"), DeviceSpec("B", 4, "GB", "n3", "n4")),
            (("GA", ("A",)), ("GB", ("B",)), ("n1", ("A", "B"))),
        ),
    ]
    for nl in netlists:
        for _ in range(20):
            labels = ["A"] * 4 + ["B"] * 4
            rng.shuffle(labels)
            p = Placement(GridDims(2, 4), tuple(labels))
            q = Placement(GridDims(2, 4), tuple(reversed(labels)))
            assert evaluate(p, nl) == evaluate(q, nl)


# -- dominates --------------------------------------------------------------


def test_dominates_examples():
    assert dominates((0, 0, 0, 0, 0), (1, 1, 1, 1, 1))
    assert not dominates((1, 1, 1, 1, 1), (1, 1, 1, 1, 1))
    assert not dominates((0, 2, 0, 0, 0), (1, 1, 0, 0, 0))
    assert not dominates((1, 1, 0, 0, 0), (0, 2, 0, 0, 0))


vectors = st.tuples(*[st.integers(0, 3) for _ in range(5)])


@given(vectors, vectors, vectors)
@settings(deadline=None, max_examples=200)
def test_dominates_strict_partial_order(a, b, c):
    assert not dominates(a, a)
    if dominates(a, b):
        assert not dominates(b, a)
    if dominates(a, b) and dominates(b, c):
        assert dominates(a, c)


# Ints and floats mixed, with 0 against 0.0 against -0.0: all three compare
# equal, so none of them may make a vector dominate its equal.
_component = st.one_of(st.integers(-2, 2), st.sampled_from([0.0, -0.0, 1.5]),
                       st.floats(-3, 3, allow_nan=False))


@st.composite
def _vector_pairs(draw):
    a = draw(st.lists(_component, max_size=6))
    b = [draw(st.sampled_from([x, float(x), -x]) | _component) for x in a]
    return tuple(a), tuple(b)


@given(_vector_pairs())
@settings(deadline=None, max_examples=500)
def test_dominates_matches_naive_rule(pair):
    a, b = pair
    for x, y in (a, b), (b, a), (a, a):
        assert dominates(x, y) is (x != y and all(u <= v for u, v in zip(x, y)))


@given(st.lists(_component, max_size=5), st.lists(_component, min_size=1, max_size=3))
@settings(deadline=None, max_examples=100)
def test_dominates_rejects_unequal_lengths(a, extra):
    longer = tuple(a + extra)
    for x, y in (tuple(a), longer), (longer, tuple(a)):
        with pytest.raises(ValueError, match="differ in length"):
            dominates(x, y)


def test_dominates_accepts_objective_vectors():
    a = ObjectiveVector(-1.0, 0.0, 3, 0, 0)
    b = ObjectiveVector(-0.5, 0.0, 3, 0, 0)
    assert dominates(a, b)


# -- delta_dom / ObjectiveRanges ---------------------------------------------


def test_delta_dom_examples():
    r = ranges_of([(0, 1), (0, 1)])
    assert delta_dom((0, 0), (1, 1), r) == pytest.approx(1.0, abs=1e-12)
    r2 = ranges_of([(0, 1), (0, 2)])
    assert delta_dom((1, 2), (2, 4), r2) == pytest.approx(1.0, abs=1e-12)
    r3 = ranges_of([(0, 2), (0, 10)])
    assert delta_dom((0, 5), (1, 5), r3) == pytest.approx(0.5, abs=1e-12)


def test_delta_dom_equal_vectors_error():
    r = ranges_of([(0, 1)])
    with pytest.raises(ValueError, match="identical"):
        delta_dom((1,), (1,), r)


@given(st.integers(1, 5), st.integers(0, 6), st.integers(0, 6), st.integers(-3, 3))
@settings(deadline=None, max_examples=100)
def test_delta_dom_scale_covariance(width, a0, b0, exp):
    if a0 == b0:
        return
    scale = 2.0 ** exp  # exact in binary floating point
    r = ranges_of([(0, width), (0, 1)])
    r_scaled = ranges_of([(0, width * scale), (0, 1)])
    plain = delta_dom((a0, 0), (b0, 1), r)
    scaled = delta_dom((a0 * scale, 0), (b0 * scale, 1), r_scaled)
    assert plain == scaled


def test_delta_dom_positive_when_different():
    r = ranges_of([(0, 1), (0, 1)])
    assert delta_dom((0, 1), (1, 1), r) > 0


def test_ranges_running_and_degenerate():
    r = ObjectiveRanges()
    r.update((1.0, 5.0))
    r.update((3.0, 5.0))
    assert r.width(0) == 2.0
    assert r.width(1) == 1.0  # never varied: treated as 1
    assert r.bounds() == [(1.0, 3.0), (5.0, 5.0)]
