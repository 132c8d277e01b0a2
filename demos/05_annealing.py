"""End to end: anneal a netlist, inspect the archive, pick a solution.

The optimiser keeps an archive of mutually non-dominated placements.  At the
end you choose: post-selection weights turn the archive into one answer
without ever re-running the search.
"""

import time

from ccplace import (
    DEFAULT_SELECTION_WEIGHTS,
    DeviceSpec,
    GridDims,
    Netlist,
    SaConfig,
    find_case,
    render_placement,
    run,
    select_solution,
)

netlist = Netlist(
    (
        DeviceSpec("A", 4, gate_net="G", source_net="S", drain_net="D"),
        DeviceSpec("B", 4, gate_net="G", source_net="S", drain_net="D"),
    ),
    (("A", ("A",)), ("B", ("B",))),
)

archive = run(netlist, GridDims(2, 4), SaConfig(seed=7))
print(f"archive holds {len(archive)} non-dominated placements:")
for s in archive:
    o = s.objectives
    print(f"  dispersion={-o.neg_dispersion:+.2f} lde={o.lde_mismatch:.3f} "
          f"routing={o.routing_cost} breaks={o.diffusion_breaks} dummies={o.dummy_count}")
print()

# Default weights favour breaks/dummies, then routing and layout effects;
# flipping all the weight onto dispersion picks the interleaved layout.
for label, weights in [("default weights", DEFAULT_SELECTION_WEIGHTS),
                       ("dispersion only", (1, 0, 0, 0, 0))]:
    best = select_solution(archive, weights)
    print(f"selected with {label}:")
    print(render_placement(best.placement))
    print()

# A published-size problem: a five-device current mirror, 32 units.
case = find_case("table1", "CM:5")
started = time.perf_counter()
archive = run(case.netlist(), case.dims(), SaConfig(seed=1))
elapsed = time.perf_counter() - started
best = select_solution(archive)
o = best.objectives
print(f"{case.name} {case.units}: {len(archive)} solutions in {elapsed:.1f}s")
print(f"selected: dispersion={-o.neg_dispersion:.2f} lde={o.lde_mismatch:.2f} "
      f"routing={o.routing_cost} breaks={o.diffusion_breaks} dummies={o.dummy_count}")
print(render_placement(best.placement))
