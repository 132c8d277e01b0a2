"""Manhattan routing-length model: spanning tree via Prim, then an
edge-based rectilinear Steiner improvement loop (Borah, Owens and Irwin,
IEEE TCAD 1994).

A trial hooks node n onto tree edge (u, v).  Its Steiner point p is n
clipped into the edge's bounding rectangle.  The trial splits the edge at a
new node q on p and adds the hook (n, q), which closes a cycle: the new edge
(q, s) to the edge's endpoint s on n's side of the cut, then the tree path
s..n.  The heaviest edge of that cycle is dropped, so the gain is its weight
minus the hook's length, floored at 0; a trial whose p is n gains 0.

Each round roots the tree once, scores every (edge, node) trial from that
rooting and applies the best.  Ties keep the scan-order rules: the first
strictly-best positive gain in (edge, node) order wins, edges in tree-list
order and nodes by index, and the dropped edge is the first strictly
heaviest on the cycle counted from q.  Seeded archives depend on both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netlist import Netlist
from .placement import Placement

Point = tuple[int, int]


@dataclass
class RoutingGraph:
    """Tree over pin and Steiner positions; edges carry Manhattan weights.

    ``nodes[:n_pins]`` are the net's pins, anything beyond was inserted as a
    Steiner point.
    """

    nodes: list[Point]
    edges: list[tuple[int, int, int]]  # (u, v, weight) over node indices
    n_pins: int

    def total_weight(self) -> int:
        return sum(w for _, _, w in self.edges)


def manhattan(a: Point, b: Point) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def rmst(pins) -> RoutingGraph:
    """Minimum spanning tree of the complete Manhattan pin graph (Prim).

    Equal-weight candidates resolve to the smallest (source, target) index
    pair, so the tree is reproducible for a fixed pin order.
    """
    pts = [tuple(p) for p in pins]
    if not pts:
        raise ValueError("at least one pin required")
    n = len(pts)
    edges: list[tuple[int, int, int]] = []
    if n > 1:
        best_w = [manhattan(pts[0], q) for q in pts]
        best_src = [0] * n
        in_tree = [False] * n
        in_tree[0] = True
        for _ in range(n - 1):
            pick = -1
            for j in range(n):
                if in_tree[j]:
                    continue
                if pick < 0 or (best_w[j], best_src[j], j) < (best_w[pick], best_src[pick], pick):
                    pick = j
            edges.append((best_src[pick], pick, best_w[pick]))
            in_tree[pick] = True
            for j in range(n):
                if not in_tree[j]:
                    w = manhattan(pts[pick], pts[j])
                    if w < best_w[j] or (w == best_w[j] and pick < best_src[j]):
                        best_w[j] = w
                        best_src[j] = pick
    return RoutingGraph(pts, edges, n)


# ---------------------------------------------------------------------------
# Steiner improvement
# ---------------------------------------------------------------------------


def _path_max(n_nodes, edges) -> np.ndarray:
    """m[a, b]: largest edge weight on the unique tree path a..b.

    Merges the tree's edges in weight order, as Kruskal would: the edge that
    joins the components of a and b is the heaviest on their path, so each
    merge fills one block of the matrix with its weight.
    """
    m = np.zeros((n_nodes, n_nodes), dtype=np.int64)
    comp = np.arange(n_nodes)
    members = list(np.arange(n_nodes)[:, None])
    for u, v, w in sorted(edges, key=lambda e: e[2]):
        cu, cv = comp[u], comp[v]
        a, b = members[cu], members[cv]
        m[a[:, None], b] = w  # one orientation; the transpose fills the other
        comp[b] = cu
        members[cu] = np.concatenate((a, b))
    return np.maximum(m, m.T)


def _rooted(n_nodes, edges):
    """DFS from node 0: parents plus entry/exit stamps for subtree tests."""
    adj = [[] for _ in range(n_nodes)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n_nodes
    tin = [0] * n_nodes
    tout = [0] * n_nodes
    timer = 0
    stack = [(0, False)]
    seen = [False] * n_nodes
    seen[0] = True
    while stack:
        v, leaving = stack.pop()
        if leaving:
            tout[v] = timer
            timer += 1
            continue
        tin[v] = timer
        timer += 1
        stack.append((v, True))
        for nbr in adj[v]:
            if not seen[nbr]:
                seen[nbr] = True
                parent[nbr] = v
                stack.append((nbr, False))
    return parent, tin, tout


def _trials(nodes, edges):
    """Every (edge, node) trial of one round, from one rooting of the tree.

    Returns ``(gain, p, s_end, rooting)``: the (edge, node) gain matrix, the
    Steiner points ``p[e, n]``, the endpoint ``s_end[e, n]`` of edge e that
    stays on node n's side once e is cut, and the ``_rooted`` arrays that
    the applied trial walks.
    """
    n_nodes = len(nodes)
    xy = np.array(nodes, dtype=np.int64)
    u, v, _ = np.array(edges, dtype=np.int64).T
    parent, tin, tout = rooting = np.array(_rooted(n_nodes, edges))
    xu, xv = xy[u][:, None, :], xy[v][:, None, :]
    p = np.minimum(np.maximum(xy, np.minimum(xu, xv)), np.maximum(xu, xv))
    d_np = np.abs(p - xy).sum(axis=2)
    child = np.where(parent[v] == u, v, u)[:, None]
    other = (u + v)[:, None] - child
    inside = (tin[child] <= tin) & (tout <= tout[child])
    s_end = np.where(inside, child, other)
    d_ps = np.abs(p - xy[s_end]).sum(axis=2)
    pathmax = _path_max(n_nodes, edges)[np.arange(n_nodes), s_end]
    gain = np.maximum(np.maximum(d_ps, pathmax), d_np) - d_np
    gain[d_np == 0] = 0
    return gain, p, s_end, rooting


def steiner_improve(g: RoutingGraph) -> RoutingGraph:
    """Apply the best positive-gain reconnection until none remains."""
    nodes, edges = list(g.nodes), list(g.edges)
    while len(edges) >= 2:
        gain, p, s_end, (parent, tin, tout) = _trials(nodes, edges)
        ei, n = divmod(int(np.argmax(gain)), len(nodes))
        if gain[ei, n] <= 0:
            break
        u, v, _ = edges[ei]
        s, q = int(s_end[ei, n]), len(nodes)
        nodes.append((int(p[ei, n, 0]), int(p[ei, n, 1])))
        # the cycle from q: (q, s), then s up to the common ancestor and
        # down to n, through the edge from each node to its parent
        up = {(a if parent[a] == b else b): k for k, (a, b, _) in enumerate(edges)}
        top, rise = s, []
        while not (tin[top] <= tin[n] and tout[n] <= tout[top]):
            rise.append(up[top])
            top = parent[top]
        fall, b = [], n
        while b != top:
            fall.append(up[b])
            b = parent[b]
        drop, drop_w = None, manhattan(nodes[q], nodes[s])
        for k in rise + fall[::-1]:
            if edges[k][2] > drop_w:
                drop, drop_w = k, edges[k][2]
        edges = [e for k, e in enumerate(edges) if k != ei and k != drop]
        edges += [(q, end, manhattan(nodes[q], nodes[end]))
                  for end in (u, v) if end != s or drop is not None]
        edges.append((n, q, manhattan(nodes[n], nodes[q])))
    return RoutingGraph(nodes, edges, g.n_pins)


# ---------------------------------------------------------------------------
# Per-net and per-placement costs
# ---------------------------------------------------------------------------


def net_cost(pins) -> int:
    """Steiner-improved tree length of one pin set (0 for < 2 pins)."""
    pts = sorted(set(tuple(p) for p in pins))
    if len(pts) < 2:
        return 0
    return steiner_improve(rmst(pts)).total_weight()


def routing_cost(p: Placement, nl: Netlist, *, cache: dict | None = None) -> int:
    """Summed Steiner-improved net lengths over the netlist's route nets.

    Each net's pins are the positions of all units of its member devices.
    Pins are evaluated in a canonical orientation (the lexicographically
    smaller of the pin set and its 180-degree rotation), which makes the
    cost invariant under rotating the whole placement.  ``cache`` maps
    canonical pin tuples to costs and may be shared across evaluations of
    the same netlist.
    """
    if cache is None:
        cache = {}
    pos = p.unit_positions()
    total = 0
    for _, members in nl.route_nets:
        pins: list[Point] = []
        for m in members:
            pins.extend(pos.get(m, ()))
        if len(pins) < 2:
            continue
        pins.sort()
        rotated = sorted((p.dims.cols + 1 - x, p.dims.rows + 1 - y) for x, y in pins)
        canon = tuple(min(pins, rotated))
        cost = cache.get(canon)
        if cost is None:
            cost = cache[canon] = net_cost(canon)
        total += cost
    return total
