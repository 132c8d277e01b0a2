import hashlib
import itertools
import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccplace import (
    DeviceSpec,
    GridDims,
    Netlist,
    Placement,
    RoutingGraph,
    kruskal_mst_weight,
    manhattan,
    net_cost,
    rmst,
    routing_cost,
    steiner_improve,
    steiner_oracle,
)
from ccplace import routing
from ccplace.routing import _trials

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


# -- single reconnections -----------------------------------------------------


def test_trial_gain_four_minus_two():
    # hooking the apex onto the 4-long base edge removes the 4-weight side
    # and adds a 2-weight drop: gain 4 - 2 = 2
    g = rmst([(1, 1), (5, 1), (3, 3)])
    assert g.total_weight() == 8
    assert g.edges[0][:2] == (0, 1)
    assert _trials(g.nodes, g.edges)[0][0, 2] == 2
    g2 = steiner_improve(g)
    assert g2.total_weight() == 6
    assert g2.nodes.index((3, 1)) >= g2.n_pins  # the inserted point


def test_trial_three_pin_example():
    g = rmst([(0, 0), (2, 0), (1, 1)])
    assert _trials(g.nodes, g.edges)[0][0, 2] == 1
    assert steiner_improve(g).total_weight() == 3


def test_trial_degenerate_point_on_rectangle():
    # node 2 sits inside the rectangle of edge (0, 1): projection distance 0
    g = RoutingGraph(nodes=[(0, 0), (4, 3), (2, 1)], edges=[(0, 1, 7), (0, 2, 3)], n_pins=3)
    assert _trials(g.nodes, g.edges)[0][0, 2] == 0


def test_trial_nonpositive_gain_leaves_tree():
    g = rmst([(0, 0), (1, 0), (2, 0)])
    assert (_trials(g.nodes, g.edges)[0] <= 0).all()
    g2 = steiner_improve(g)
    assert (g2.nodes, g2.edges) == (g.nodes, g.edges)


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
    pins = [(0, 0), (4, 0), (2, 2), (2, 4)]
    g = steiner_improve(rmst(pins))
    assert g.n_pins == 4
    assert g.nodes[:g.n_pins] == pins


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


def _naive_steiner(pins):
    """Reference loop: score each (edge, node) trial on its own, in scan
    order, and apply the first strictly-best positive gain."""
    g = rmst(pins)
    nodes, edges = list(g.nodes), list(g.edges)
    while True:
        best = None
        for ei, (u, v, _) in enumerate(edges):
            (ux, uy), (vx, vy) = nodes[u], nodes[v]
            for n, (nx, ny) in enumerate(nodes):
                p = (min(max(nx, min(ux, vx)), max(ux, vx)), min(max(ny, min(uy, vy)), max(uy, vy)))
                hook = manhattan(nodes[n], p)
                if hook == 0:
                    continue
                trial, cycle = _naive_reconnect(nodes, edges, ei, n, p)
                gain = max(trial[k][2] for k in cycle) - hook
                if gain > 0 and (best is None or gain > best[0]):
                    best = (gain, p, trial, cycle)
        if best is None:
            return nodes, edges
        _, p, trial, cycle = best
        heaviest = max(cycle, key=lambda k: trial[k][2])  # the first from q on a tie
        nodes = nodes + [p]
        edges = [e for k, e in enumerate(trial) if k != heaviest]


def _naive_reconnect(nodes, edges, ei, n, p):
    """The edges once edge ei is split at a new node q = p and n is hooked
    onto q, with the cycle: the path q..n that avoids the hook, as edge
    indices in order from q, found by walking the new graph."""
    u, v, _ = edges[ei]
    q = len(nodes)
    trial = [e for k, e in enumerate(edges) if k != ei]
    trial += [(q, u, manhattan(p, nodes[u])), (q, v, manhattan(p, nodes[v])), (n, q, manhattan(nodes[n], p))]
    adj = {a: [] for a in range(q + 1)}
    for k, (a, b, _) in enumerate(trial[:-1]):
        adj[a].append((b, k))
        adj[b].append((a, k))
    via = {q: None}
    stack = [q]
    while stack:
        a = stack.pop()
        for b, k in adj[a]:
            if b not in via:
                via[b] = (a, k)
                stack.append(b)
    cycle, b = [], n
    while via[b] is not None:
        b, k = via[b]
        cycle.append(k)
    return trial, cycle[::-1]


def test_round_that_does_not_pay_raises():
    # a round must lower the tree's length by exactly its gain; the check is
    # an explicit raise, so it also holds under python -O
    real = routing._trials

    def overstated(nodes, edges):
        gain, *rest = real(nodes, edges)
        gain.flat[gain.argmax()] += 1
        return (gain, *rest)

    with mock.patch.object(routing, "_trials", overstated):
        with pytest.raises(routing.SteinerError, match="gain 3 removed weight 8 and added 6"):
            steiner_improve(rmst([(1, 1), (5, 1), (3, 3)]))


_GRIDS = st.one_of(st.just((2, 16)), st.tuples(st.integers(1, 8), st.integers(1, 8)).filter(lambda rc: rc[0] * rc[1] >= 2))


@given(st.data(), _GRIDS)
@settings(deadline=None, max_examples=300)
def test_steiner_matches_naive_reference(data, grid):
    rows, cols = grid
    cells = [(x, y) for y in range(1, rows + 1) for x in range(1, cols + 1)]
    pins = data.draw(st.lists(st.sampled_from(cells), min_size=2, max_size=min(24, len(cells)), unique=True))
    expected = _naive_steiner(pins)
    # each applied trial adds one node, and a last round finds no positive
    # gain; one rooting per round also bounds a loop that would not end
    rounds = len(expected[0]) - len(pins) + 1
    rootings = itertools.count(1)
    real = routing._rooted

    def rooted(*args):
        if next(rootings) > rounds:
            raise AssertionError(f"more than {rounds} rootings")
        return real(*args)

    with mock.patch.object(routing, "_rooted", rooted):
        g = steiner_improve(rmst(pins))
    assert (g.nodes, g.edges) == expected


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


def test_route_cache_costs_the_smaller_xy_pin_tuple():
    # A's pins S and their 180-degree image rot S have Steiner costs 8 and 7,
    # since the heuristic is not rotation-invariant.  Both placements cost 8,
    # the cost of the smaller (x, y) pin tuple S, whichever one a shared
    # cache sees first; taking the smaller cell-index tuple would give 7.
    nl = Netlist((DeviceSpec("A", 5, "G", "S", "D"),), (("A", ("A",)),))
    s = make_grid(["  A ",
                   "A   ",
                   " A  ",
                   "A A "])
    rot_s = make_grid([" A A",
                       "  A ",
                       "   A",
                       " A  "])
    assert rot_s.cells == s.cells[::-1]
    assert net_cost([(1, 2), (1, 4), (2, 3), (3, 1), (3, 4)]) == 8
    assert net_cost([(2, 1), (2, 4), (3, 2), (4, 1), (4, 3)]) == 7
    assert routing_cost(s, nl) == routing_cost(rot_s, nl) == 8
    for first, second in ((s, rot_s), (rot_s, s)):
        cache = {}
        assert [routing_cost(p, nl, cache=cache) for p in (first, second)] == [8, 8]
        assert len(cache) == 1


def _naive_routing_cost(p, nl, keys):
    """Reference rule: each net's pins from their coordinates, sorted, the
    smaller of them and their 180-degree rotation, then ``net_cost``; the
    chosen pin tuples are added to ``keys``."""
    rows, cols = p.dims.rows, p.dims.cols
    total = 0
    for _, members in nl.route_nets:
        pins = sorted((i % cols + 1, i // cols + 1) for i, c in enumerate(p.cells) if c in members)
        if len(pins) >= 2:
            rotated = sorted((cols + 1 - x, rows + 1 - y) for x, y in pins)
            keys.add(tuple(min(pins, rotated)))
            total += net_cost(min(pins, rotated))
    return total


@st.composite
def _placement_sequences(draw):
    """A netlist of 1-4 devices with 1-4 route nets of 1-3 members, and 1-5
    placements on one grid of up to 6x6 with empty cells; a placement may be
    the 180-degree image of the one before it."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    names = "ABCD"[:draw(st.integers(1, 4))]
    cells = st.lists(st.sampled_from((None, *names)), min_size=rows * cols, max_size=rows * cols)
    seq = [draw(cells)]
    for _ in range(draw(st.integers(0, 4))):
        seq.append(seq[-1][::-1] if draw(st.booleans()) else draw(cells))
    nets = draw(st.lists(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True),
                         min_size=1, max_size=4))
    nl = Netlist(tuple(DeviceSpec(n, 1, "G", "S", "D") for n in names),
                 tuple((f"N{k}", tuple(members)) for k, members in enumerate(nets)))
    return nl, [Placement(GridDims(rows, cols), tuple(c)) for c in seq]


@given(_placement_sequences())
@settings(deadline=None, max_examples=150)
def test_routing_cost_matches_naive_rule(case):
    nl, placements = case
    cache, keys = {}, set()
    for p in placements:
        assert routing_cost(p, nl, cache=cache) == _naive_routing_cost(p, nl, keys)
        assert len(cache) == len(keys)  # the same lookups hit and miss
