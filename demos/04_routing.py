"""Routing-length estimation: spanning tree first, then Steiner points.

A rectilinear minimum spanning tree connects pins pairwise; introducing
well-placed branch points (Steiner nodes) can shorten it.  The improvement
loop repeatedly hooks a node onto the rectangle of a tree edge and drops
the heaviest edge of the cycle that creates.
"""

from ccplace import net_cost, rmst, steiner_improve, steiner_oracle

# Three pins in a T: the apex is 4 away from both base corners.
pins = [(1, 1), (5, 1), (3, 3)]
tree = rmst(pins)
print(f"pins: {pins}")
print(f"spanning tree weight: {tree.total_weight()}, edges: {tree.edges}")

# The loop hooks the apex (node 2) onto the base edge (nodes 0-1): the
# apex's projection onto the edge's rectangle lands at (3, 1), two away, and
# the heaviest edge of the cycle that closes weighs four, so the gain is
# 4 - 2 = 2.  No further reconnection gains, so the loop stops there, and
# the exhaustive oracle confirms the result is optimal.
final = steiner_improve(tree)
print(f"loop result: {final.total_weight()}, edges: {final.edges}")
print(f"steiner points: {final.nodes[final.n_pins:]}, exact optimum: {steiner_oracle(pins)}")
print()

# On random nets the heuristic always lands between the exact optimum and
# the spanning tree.
import random

rng = random.Random(0)
for _ in range(5):
    pts = sorted({(rng.randint(1, 10), rng.randint(1, 10)) for _ in range(4)})
    print(f"net {pts}: oracle {steiner_oracle(pts)} <= "
          f"heuristic {net_cost(pts)} <= tree {rmst(pts).total_weight()}")
