"""Manhattan routing-length model: spanning tree via Prim, then an
edge-based rectilinear Steiner improvement loop (Borah, Owens and Irwin,
IEEE TCAD 1994).

Each round of the loop scores every (tree edge, node) reconnection at once
and applies the best.  Ties keep the scan-order rule: the first
strictly-best positive gain in (edge, node) order wins, edges in tree-list
order and nodes by index.  Seeded archives depend on that rule.
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

    def is_pin(self, i: int) -> bool:
        return i < self.n_pins

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


def _steiner_candidate(nodes, u, v, n) -> Point:
    """Closest point to node n within the bounding rectangle of edge (u, v)."""
    (ux, uy), (vx, vy) = nodes[u], nodes[v]
    nx, ny = nodes[n]
    px = min(max(nx, min(ux, vx)), max(ux, vx))
    py = min(max(ny, min(uy, vy)), max(uy, vy))
    return (px, py)


def _trial_gains(nodes, edges) -> np.ndarray:
    """Gain of hooking each node n onto each edge (u, v): an (edge, node) matrix.

    The hook goes through p, the point of the edge's bounding rectangle
    closest to n.  Replacing (u, v) by (p, u), (p, v), (n, p) closes a cycle
    through n's side of the split tree; the removable weight is the cycle's
    largest edge, so the gain is that weight minus the new (n, p) connection.
    Pairs where p coincides with n (which includes n in {u, v}) gain 0.
    """
    n_nodes = len(nodes)
    xy = np.array(nodes, dtype=np.int64)
    u, v, _ = np.array(edges, dtype=np.int64).T
    parent, tin, tout = np.array(_rooted(n_nodes, edges))
    xu, xv = xy[u][:, None, :], xy[v][:, None, :]
    # p[e, n]: node n clipped into edge e's bounding rectangle
    p = np.minimum(np.maximum(xy, np.minimum(xu, xv)), np.maximum(xu, xv))
    d_np = np.abs(p - xy).sum(axis=2)
    # s_end: the endpoint of (u, v) on n's side once the edge is cut.
    child = np.where(parent[v] == u, v, u)[:, None]
    other = (u + v)[:, None] - child
    inside = (tin[child] <= tin) & (tout <= tout[child])
    s_end = np.where(inside, child, other)
    d_ps = np.abs(p - xy[s_end]).sum(axis=2)
    pathmax = _path_max(n_nodes, edges)[np.arange(n_nodes), s_end]
    gain = np.maximum(np.maximum(d_ps, pathmax), d_np) - d_np
    gain[d_np == 0] = 0
    return gain


def _best_trial(nodes, edges):
    """The (gain, edge_idx, node_idx) of the best positive-gain trial, or None.

    ``np.argmax`` over the row-major matrix keeps the scan-order rule: the
    first strictly-best gain in (edge, node) order wins.
    """
    if len(edges) < 2:
        return None
    gain = _trial_gains(nodes, edges)
    ei, n = divmod(int(np.argmax(gain)), len(nodes))
    best = int(gain[ei, n])
    return (best, ei, n) if best > 0 else None


def _tree_path_edges(n_nodes, edges, skip_idx, src, dst):
    """Edge indices along the path src..dst, ignoring edge ``skip_idx``."""
    adj = [[] for _ in range(n_nodes)]
    for ei, (u, v, _) in enumerate(edges):
        if ei == skip_idx:
            continue
        adj[u].append((v, ei))
        adj[v].append((u, ei))
    via = {src: (None, None)}
    stack = [src]
    while stack:
        v = stack.pop()
        if v == dst:
            break
        for nbr, ei in adj[v]:
            if nbr not in via:
                via[nbr] = (v, ei)
                stack.append(nbr)
    path = []
    v = dst
    while via[v][0] is not None:
        v, ei = via[v]
        path.append(ei)
    path.reverse()
    return path


def _apply_trial(nodes, edges, ei, n):
    """Insert the Steiner point for (edge ei, node n) and drop the heaviest
    cycle edge (ties resolve to the edge nearest the new point)."""
    u, v, _ = edges[ei]
    p = _steiner_candidate(nodes, u, v, n)
    q = len(nodes)
    new_nodes = nodes + [p]
    new_edges = [e for k, e in enumerate(edges) if k != ei]
    new_edges.append((q, u, manhattan(p, nodes[u])))
    new_edges.append((q, v, manhattan(p, nodes[v])))
    new_edges.append((n, q, manhattan(nodes[n], p)))
    hook_idx = len(new_edges) - 1
    path = _tree_path_edges(len(new_nodes), new_edges, hook_idx, q, n)
    drop, drop_w = None, -1
    for k in path:
        w = new_edges[k][2]
        if w > drop_w:
            drop, drop_w = k, w
    del new_edges[drop]
    return new_nodes, new_edges


def steiner_improve(g: RoutingGraph) -> RoutingGraph:
    """Apply the best positive-gain reconnection until none remains."""
    nodes, edges = list(g.nodes), list(g.edges)
    while True:
        found = _best_trial(nodes, edges)
        if found is None:
            break
        _, ei, n = found
        nodes, edges = _apply_trial(nodes, edges, ei, n)
    return RoutingGraph(nodes, edges, g.n_pins)


def trial_add_steiner(g: RoutingGraph, n: int, edge: tuple[int, int]):
    """Probe a single reconnection of node ``n`` against tree edge ``edge``.

    Returns (gain, graph): the reconnected graph when gain > 0, the input
    graph unchanged otherwise (including the degenerate case where ``n``
    already lies on the edge's rectangle).
    """
    u, v = edge
    for ei, (a, b, _) in enumerate(g.edges):
        if {a, b} == {u, v}:
            break
    else:
        raise ValueError(f"edge {edge} is not in the graph")
    if n == u or n == v:
        raise ValueError("node must not be an endpoint of the edge")
    gain = int(_trial_gains(g.nodes, g.edges)[ei, n])
    if gain <= 0:
        return gain, g
    nodes, edges = _apply_trial(list(g.nodes), list(g.edges), ei, n)
    return gain, RoutingGraph(nodes, edges, g.n_pins)


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
