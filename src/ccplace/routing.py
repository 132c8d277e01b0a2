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
rooting and applies the best.  The rooting's depth-first walk fills the
path-max matrix: a node x reached from its parent x' by an edge of weight w
gets pm[x][y] = pm[y][x] = max(pm[x'][y], w) for each node y visited
before it.  Ties keep the scan-order rules: the first strictly-best
positive gain in (edge, node) order wins, edges in tree-list order and
nodes by index, and the dropped edge is the first strictly heaviest on the
cycle counted from q.  Seeded archives depend on both.  A round must lower
the tree's length by exactly its gain, at least 1, or ``SteinerError`` is
raised, so no net takes more rounds than its spanning tree's length.

``routing_cost`` keys a net by the smaller of its sorted row-major cell
indices and their 180-degree image (cells-1-i, reversed), so a cache hit
builds no pins.  A miss costs the smaller of its sorted (x, y) pins and
their image: both name the same pair of pin sets, but the Steiner
heuristic is not rotation-invariant, so the (x, y) rule picks the tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netlist import Netlist
from .placement import Placement

Point = tuple[int, int]


class SteinerError(RuntimeError):
    """An applied Steiner round did not lower the tree's length by its gain."""


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
    x0, y0 = pts[0]
    best = [(abs(x - x0) + abs(y - y0), 0) for x, y in pts]  # (weight, source) per node
    rest = list(range(1, n))
    while rest:
        pick = min(rest, key=best.__getitem__)
        rest.remove(pick)
        edges.append((best[pick][1], pick, best[pick][0]))
        px, py = pts[pick]
        for j in rest:
            x, y = pts[j]
            via = (abs(px - x) + abs(py - y), pick)
            if via < best[j]:
                best[j] = via
    return RoutingGraph(pts, edges, n)


# ---------------------------------------------------------------------------
# Steiner improvement
# ---------------------------------------------------------------------------


def _rooted(n_nodes, edges):
    """Depth-first walk from node 0: parents, preorder ranks ``tin``, the
    last rank ``tout`` in each node's subtree, and the path-max matrix
    indexed by rank."""
    adj = [[] for _ in range(n_nodes)]
    for u, v, w in edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    parent = [-1] * n_nodes
    tin = [0] * n_nodes
    order = []
    pm = np.zeros((n_nodes, n_nodes), dtype=np.int64)
    stack = [(0, -1, 0)]
    while stack:
        x, up, w = stack.pop()
        k = tin[x] = len(order)
        order.append(x)
        if up >= 0:
            parent[x] = up
            pm[k, :k] = pm[:k, k] = np.maximum(pm[tin[up], :k], w)
        for y, wy in adj[x]:
            if y != up:
                stack.append((y, x, wy))
    tout = tin[:]
    for x in reversed(order[1:]):
        tout[parent[x]] = max(tout[parent[x]], tout[x])
    return parent, tin, tout, pm


def _trials(nodes, edges):
    """Every (edge, node) trial of one round, from one rooting of the tree.

    Returns ``(gain, (px, py), s_end, rooting)``: the (edge, node) gain
    matrix, the Steiner points ``(px[e, n], py[e, n])``, the endpoint
    ``s_end[e, n]`` of edge e that stays on node n's side once e is cut,
    and the ``_rooted`` walk that the applied trial follows.
    """
    x, y = np.array(nodes, dtype=np.int64).T
    u, v, _ = np.array(edges, dtype=np.int64).T
    rooting = _rooted(len(nodes), edges)
    tin, tout = np.array(rooting[1:3])
    xu, xv, yu, yv = x[u, None], x[v, None], y[u, None], y[v, None]
    px = np.minimum(np.maximum(x, np.minimum(xu, xv)), np.maximum(xu, xv))
    py = np.minimum(np.maximum(y, np.minimum(yu, yv)), np.maximum(yu, yv))
    d_np = np.abs(px - x) + np.abs(py - y)
    deeper = tin[u] > tin[v]  # u is v's child
    child, other = np.where(deeper, u, v)[:, None], np.where(deeper, v, u)[:, None]
    s_end = np.where((tin[child] <= tin) & (tin <= tout[child]), child, other)
    d_ps = np.abs(px - x[s_end]) + np.abs(py - y[s_end])
    gain = np.maximum(np.maximum(d_ps, rooting[3][tin, tin[s_end]]), d_np) - d_np
    gain[d_np == 0] = 0
    return gain, (px, py), s_end, rooting


def steiner_improve(g: RoutingGraph) -> RoutingGraph:
    """Apply the best positive-gain reconnection until none remains."""
    nodes, edges = list(g.nodes), list(g.edges)
    while len(edges) >= 2:
        gain, (px, py), s_end, (parent, tin, tout, _) = _trials(nodes, edges)
        ei, n = divmod(int(gain.argmax()), len(nodes))
        best = int(gain[ei, n])
        if best <= 0:
            break
        u, v, w = edges[ei]
        s, q = int(s_end[ei, n]), len(nodes)
        nodes.append((int(px[ei, n]), int(py[ei, n])))
        # the cycle from q: (q, s), then s up to the common ancestor and
        # down to n, through the edge from each node to its parent
        up = {(a if parent[a] == b else b): k for k, (a, b, _) in enumerate(edges)}
        top, rise = s, []
        while not tin[top] <= tin[n] <= tout[top]:
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
        added = [(q, end, manhattan(nodes[q], nodes[end]))
                 for end in (u, v) if end != s or drop is not None]
        added.append((n, q, manhattan(nodes[n], nodes[q])))
        removed, put = w + (drop_w if drop is not None else 0), sum(e[2] for e in added)
        if removed != put + best:
            raise SteinerError(f"a round of gain {best} removed weight {removed} and added {put}")
        edges = [e for k, e in enumerate(edges) if k != ei and k != drop] + added
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
    ``cache`` maps net keys (see the module docstring) to costs and may be
    shared across evaluations on one grid.  The cost is invariant under
    rotating the whole placement.
    """
    if cache is None:
        cache = {}
    at: dict[str, list[int]] = {}
    for i, c in enumerate(p.cells):
        if c is not None:
            at.setdefault(c, []).append(i)
    last = p.dims.cells - 1
    total = 0
    for _, members in nl.route_nets:
        idx = [i for m in members for i in at.get(m, ())]
        if len(idx) < 2:
            continue
        idx.sort()
        key = tuple(min(idx, [last - i for i in reversed(idx)]))
        cost = cache.get(key)
        if cost is None:
            pins = sorted(map(p.coord, key))
            rotated = sorted(p.coord(last - i) for i in key)
            cost = cache[key] = net_cost(tuple(min(pins, rotated)))
        total += cost
    return total
