"""Common-centroid placement of analog transistor arrays.

The optimiser explores common-centroid topologies of matched unit-transistor
arrays with multi-objective simulated annealing, scoring each candidate on
dispersion, well-proximity mismatch, estimated routing length, diffusion
breaks, and dummy count, and returns the archive of non-dominated placements.
"""

from .anneal import (
    DEFAULT_SELECTION_WEIGHTS,
    Archive,
    CcAnnealer,
    SaConfig,
    Solution,
    accept_probability,
    delta_dom_avg,
    initial_placement,
    run,
    select_solution,
)
from .bench import (
    SUITES,
    TABLE1,
    TABLE2,
    BenchmarkCase,
    cascode_diff_input_netlist,
    cascode_diff_load_netlist,
    current_mirror_netlist,
    find_case,
    format_table,
    run_benchmarks,
    suite_cases,
)
from .netlist import DeviceSpec, Netlist, NetlistError, parse_grid, parse_netlist
from .objectives import (
    OBJECTIVE_NAMES,
    ObjectiveRanges,
    ObjectiveVector,
    delta_dom,
    dispersion,
    dominates,
    evaluate,
    inv_wpe,
    lde_mismatch,
)
from .oracle import (
    DEFAULT_BUDGET,
    OracleBudget,
    OracleBudgetError,
    cc_enumerate,
    dispersion_oracle,
    kruskal_mst_weight,
    pattern_classes,
    steiner_oracle,
)
from .placement import (
    DUMMY,
    Cell,
    CentroidReport,
    Dummy,
    GridDims,
    Placement,
    PlacementError,
    break_positions,
    check_cc,
    count_diffusion_breaks,
    count_dummies,
    dummy_positions,
    enumerate_perturbations,
    swap_mirrored,
    transform_xx180,
    transform_xy180,
)
from .report import (
    RunReport,
    netlist_from_dict,
    netlist_to_dict,
    parse_rendered,
    render_placement,
    report_from_json,
    report_to_json,
)
from .routing import RoutingGraph, manhattan, net_cost, rmst, routing_cost, steiner_improve, trial_add_steiner

__version__ = "0.1.0"
