import hashlib
import json
import random

import pytest

from ccplace import (
    DeviceSpec,
    GridDims,
    Netlist,
    RoutingGraph,
    kruskal_mst_weight,
    net_cost,
    rmst,
    routing_cost,
    steiner_improve,
    steiner_oracle,
    trial_add_steiner,
)

from conftest import make_grid


# -- rmst ---------------------------------------------------------------------


def test_rmst_single_pin():
    g = rmst([(3, 3)])
    assert g.edges == [] and g.total_weight() == 0


def test_rmst_triangle():
    g = rmst([(0, 0), (2, 0), (1, 1)])
    assert g.total_weight() == 4


def test_rmst_collinear_chain():
    assert rmst([(0, 0), (1, 0), (2, 0)]).total_weight() == 2


def test_rmst_matches_kruskal():
    rng = random.Random(3)
    for _ in range(50):
        pts = {(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(rng.randint(2, 8))}
        assert rmst(sorted(pts)).total_weight() == kruskal_mst_weight(pts)


def test_rmst_empty_errors():
    with pytest.raises(ValueError):
        rmst([])


# -- trial_add_steiner --------------------------------------------------------


def test_trial_gain_four_minus_two():
    # hooking the apex onto the 4-long base edge removes the 4-weight side
    # and adds a 2-weight drop: gain 4 - 2 = 2
    g = rmst([(1, 1), (5, 1), (3, 3)])
    assert g.total_weight() == 8
    gain, g2 = trial_add_steiner(g, 2, (0, 1))
    assert gain == 2
    assert g2.total_weight() == 6
    assert (3, 1) in g2.nodes  # the inserted point
    assert not g2.is_pin(g2.nodes.index((3, 1)))


def test_trial_three_pin_example():
    g = rmst([(0, 0), (2, 0), (1, 1)])
    gain, g2 = trial_add_steiner(g, 2, (0, 1))
    assert gain == 1
    assert g2.total_weight() == 3


def test_trial_degenerate_point_on_rectangle():
    # node 2 sits inside the rectangle of edge (0, 1): projection distance 0
    g = RoutingGraph(nodes=[(0, 0), (4, 3), (2, 1)], edges=[(0, 1, 7), (0, 2, 3)], n_pins=3)
    gain, g2 = trial_add_steiner(g, 2, (0, 1))
    assert gain == 0
    assert g2 is g


def test_trial_nonpositive_gain_leaves_tree():
    g = rmst([(0, 0), (1, 0), (2, 0)])
    gain, g2 = trial_add_steiner(g, 0, (1, 2))
    assert gain <= 0
    assert g2 is g


def test_trial_validates_arguments():
    g = rmst([(0, 0), (2, 0), (1, 1)])
    with pytest.raises(ValueError, match="not in the graph"):
        trial_add_steiner(g, 2, (1, 2))
    with pytest.raises(ValueError, match="endpoint"):
        trial_add_steiner(g, 0, (0, 1))


# -- improvement loop ---------------------------------------------------------


def test_steiner_improves_l_shape():
    assert net_cost([(0, 0), (2, 0), (1, 1)]) == 3  # below the RMST's 4


def test_steiner_never_worse_than_rmst_and_reaches_oracle():
    rng = random.Random(7)
    for _ in range(60):
        pts = sorted({(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(rng.randint(2, 4))})
        tree_w = rmst(pts).total_weight()
        heur = net_cost(pts)
        assert steiner_oracle(pts) <= heur <= tree_w


def test_steiner_keeps_pin_count():
    g = steiner_improve(rmst([(0, 0), (4, 0), (2, 2), (2, 4)]))
    assert g.n_pins == 4
    assert all(g.is_pin(i) == (i < 4) for i in range(len(g.nodes)))


def _exactness_pin_sets():
    """200 seeded pin sets: 2-64 pins on 3x3, 6x6, 8x8 and 4x16 grids."""
    rng = random.Random(20240700)
    for rows, cols in ((3, 3), (6, 6), (8, 8), (4, 16)):
        cells = [(x, y) for y in range(1, rows + 1) for x in range(1, cols + 1)]
        for _ in range(50):
            yield sorted(rng.sample(cells, rng.randint(2, min(64, len(cells)))))


def test_steiner_exact_path_is_pinned():
    # Seeded archives depend on the exact trees, not only their lengths: the
    # digest covers every node and edge of each improved tree, so any change
    # to the move sequence or the tie rule shows up here.
    h = hashlib.sha256()
    n = 0
    for pins in _exactness_pin_sets():
        g = steiner_improve(rmst(pins))
        h.update(json.dumps([g.nodes, g.edges]).encode())
        n += 1
    assert n == 200
    assert h.hexdigest() == "6bf56d0b12c747f4b970a55a26e093567138fd84d97ad34220c400a22da08513"


# -- routing_cost -------------------------------------------------------------


def test_single_unit_net_is_free():
    nl = Netlist(
        (DeviceSpec("A", 1, "G", "S", "D"), DeviceSpec("B", 3, "G", "S", "D")),
        (("A", ("A",)), ("B", ("B",))),
    )
    p = make_grid(["ABBB"])
    assert routing_cost(p, nl) == 2  # only B's chain costs anything


def test_routing_cost_no_nets():
    nl = Netlist((DeviceSpec("A", 4, "G", "S", "D"),))
    assert routing_cost(make_grid(["AAAA"]), nl) == 0


def test_routing_cost_multi_device_net():
    nl = Netlist(
        (DeviceSpec("A", 2, "G", "S", "D"), DeviceSpec("B", 2, "G", "S", "D")),
        (("S", ("A", "B")),),
    )
    p = make_grid(["AB", "BA"])
    assert routing_cost(p, nl) == 3  # spanning all four cells of the 2x2 grid


def test_routing_cost_rotation_invariant(pair_netlist, topologies):
    for p in topologies.values():
        q_cells = tuple(reversed(p.cells))
        q = p.__class__(p.dims, q_cells)
        assert routing_cost(p, pair_netlist) == routing_cost(q, pair_netlist)


def test_routing_cost_cache_reuse(pair_netlist, topologies):
    cache = {}
    first = routing_cost(topologies[2], pair_netlist, cache=cache)
    assert cache
    again = routing_cost(topologies[2], pair_netlist, cache=cache)
    assert first == again


def test_topology_routing_costs(pair_netlist, topologies):
    costs = {k: routing_cost(p, pair_netlist) for k, p in topologies.items()}
    assert costs == {1: 10, 2: 8, 3: 8, 4: 10}
