import random
from fractions import Fraction

import pytest

from ccplace import (
    DeviceSpec,
    GridDims,
    Netlist,
    OracleBudget,
    OracleBudgetError,
    Placement,
    cc_enumerate,
    check_cc,
    dispersion,
    dispersion_oracle,
    kruskal_mst_weight,
    pattern_classes,
    rmst,
    steiner_oracle,
)

from conftest import make_grid


def random_placement(rng, rows, cols, devices):
    labels = [chr(ord("A") + rng.randrange(devices)) for _ in range(rows * cols)]
    return Placement(GridDims(rows, cols), tuple(labels))


def test_dispersion_oracle_examples():
    assert dispersion_oracle(make_grid(["AB", "BA"])) == 1
    assert dispersion_oracle(make_grid(["AABB"])) == Fraction(-1, 3)


def test_dispersion_oracle_matches_fast_path():
    rng = random.Random(99)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(2, 8)
        p = random_placement(rng, rows, cols, rng.randint(2, 5))
        assert dispersion_oracle(p) == dispersion(p)


def test_dispersion_oracle_budget():
    big = make_grid(["A" * 8] * 8)
    with pytest.raises(OracleBudgetError, match="64 cells"):
        dispersion_oracle(big)
    assert dispersion_oracle(big, OracleBudget(max_cells=64)) == -1


def test_steiner_oracle_examples():
    assert steiner_oracle([(0, 0), (2, 0), (1, 1)]) == 3
    assert steiner_oracle([(0, 0), (3, 4)]) == 7
    assert steiner_oracle([(5, 5)]) == 0


def test_steiner_oracle_budget():
    pins = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]
    with pytest.raises(OracleBudgetError, match="5 pins"):
        steiner_oracle(pins)
    assert steiner_oracle(pins, OracleBudget(max_pins=5)) == 4


def test_kruskal_agrees_with_prim():
    rng = random.Random(21)
    for _ in range(40):
        pts = sorted({(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(rng.randint(1, 9))})
        assert kruskal_mst_weight(pts) == rmst(pts).total_weight()


def test_cc_enumerate_pair_instance(pair_netlist, pair_dims):
    placements = cc_enumerate(pair_netlist, pair_dims)
    assert len(placements) == 8
    assert all(check_cc(p).is_cc for p in placements)
    assert len(pattern_classes(placements, pair_netlist)) == 4


def test_cc_enumerate_single_device():
    nl = Netlist((DeviceSpec("A", 4, "G", "S", "D"),))
    placements = cc_enumerate(nl, GridDims(2, 2))
    assert len(placements) == 1


def test_cc_enumerate_too_small_grid():
    nl = Netlist((DeviceSpec("A", 4, "G", "S", "D"),))
    with pytest.warns(UserWarning, match="too small"):
        assert cc_enumerate(nl, GridDims(1, 3)) == []


def test_cc_enumerate_budget():
    nl = Netlist((
        DeviceSpec("A", 8, "G", "S", "D"),
        DeviceSpec("B", 8, "G", "S", "D"),
        DeviceSpec("C", 8, "G", "S", "D"),
    ))
    with pytest.raises(OracleBudgetError, match="arrangements"):
        cc_enumerate(nl, GridDims(2, 12))
    with pytest.raises(OracleBudgetError, match="cells"):
        cc_enumerate(nl, GridDims(4, 12))


def test_cc_enumerate_with_empties():
    nl = Netlist((DeviceSpec("A", 2, "G", "S", "D"),))
    placements = cc_enumerate(nl, GridDims(1, 4))
    # A at mirrored columns: {1,4} or {2,3}
    assert len(placements) == 2
