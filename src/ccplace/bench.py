"""Bundled benchmark suites: current mirrors and cascode differential
input/load pairs at published unit counts.

Grid dimensions are not part of the published data; every bundled case uses
two rows (cols = ceil(total/2)) and records that choice in its results.  The
``published`` dict carries the reference values verbatim for side-by-side
inspection; the ``k`` label is opaque metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

from .anneal import SaConfig, run, select_solution
from .netlist import DeviceSpec, Netlist
from .placement import GridDims


def current_mirror_netlist(units) -> Netlist:
    """Mirror bank: the first device is the diode-tied reference, the rest
    copy it.  All gates and sources are common, so any pair of adjacent
    units can share diffusion."""
    if len(units) < 2:
        raise ValueError("a current mirror needs at least two devices")
    devices = []
    drain_nets = []
    for i, u in enumerate(units):
        name = f"M{i + 1}"
        drain = "G" if i == 0 else f"D{i}"
        devices.append(DeviceSpec(name, u, gate_net="G", source_net="S", drain_net=drain))
        if i > 0:
            drain_nets.append((drain, (name,)))
    names = tuple(d.name for d in devices)
    route = (("G", names), ("S", names), *drain_nets)
    return Netlist(tuple(devices), route)


def cascode_diff_input_netlist(units) -> Netlist:
    """Differential input pair (M1, M2) under a cascode pair (M3, M4)."""
    if len(units) != 4:
        raise ValueError(f"a cascode differential input pair has 4 devices, got {len(units)}")
    devices = (
        DeviceSpec("M1", units[0], gate_net="INP", source_net="TAIL", drain_net="MIDP"),
        DeviceSpec("M2", units[1], gate_net="INN", source_net="TAIL", drain_net="MIDN"),
        DeviceSpec("M3", units[2], gate_net="NB", source_net="MIDP", drain_net="OUTP"),
        DeviceSpec("M4", units[3], gate_net="NB", source_net="MIDN", drain_net="OUTN"),
    )
    route = (
        ("TAIL", ("M1", "M2")),
        ("NB", ("M3", "M4")),
        ("MIDP", ("M1", "M3")),
        ("MIDN", ("M2", "M4")),
        ("INP", ("M1",)),
        ("INN", ("M2",)),
        ("OUTP", ("M3",)),
        ("OUTN", ("M4",)),
    )
    return Netlist(devices, route)


def cascode_diff_load_netlist(units) -> Netlist:
    """Load pair (M1, M2) off the supply feeding a cascode pair (M3, M4)."""
    if len(units) != 4:
        raise ValueError(f"a cascode differential load pair has 4 devices, got {len(units)}")
    devices = (
        DeviceSpec("M1", units[0], gate_net="PB1", source_net="VDD", drain_net="MIDP"),
        DeviceSpec("M2", units[1], gate_net="PB1", source_net="VDD", drain_net="MIDN"),
        DeviceSpec("M3", units[2], gate_net="PB2", source_net="MIDP", drain_net="OUTP"),
        DeviceSpec("M4", units[3], gate_net="PB2", source_net="MIDN", drain_net="OUTN"),
    )
    route = (
        ("VDD", ("M1", "M2")),
        ("PB1", ("M1", "M2")),
        ("PB2", ("M3", "M4")),
        ("MIDP", ("M1", "M3")),
        ("MIDN", ("M2", "M4")),
        ("OUTP", ("M3",)),
        ("OUTN", ("M4",)),
    )
    return Netlist(devices, route)


_BUILDERS = {
    "cm": current_mirror_netlist,
    "cdip": cascode_diff_input_netlist,
    "cdlp": cascode_diff_load_netlist,
}


@dataclass(frozen=True)
class BenchmarkCase:
    name: str
    units: tuple[int, ...]
    kind: str  # "cm" | "cdip" | "cdlp"
    k: str  # opaque label carried from the published table
    published: dict

    def netlist(self) -> Netlist:
        return _BUILDERS[self.kind](self.units)

    def dims(self) -> GridDims:
        total = sum(self.units)
        return GridDims(2, (total + 1) // 2)


TABLE1 = (
    BenchmarkCase("CM:1", (2, 2, 4, 8, 8), "cm", "K=1.3",
                  {"dispersion": 0.47, "lde": 0.21, "routing_model": 77, "breaks": 0, "dummies": 0}),
    BenchmarkCase("CM:2", (2, 2, 4, 10), "cm", "K=2",
                  {"dispersion": 0.19, "lde": 0.46, "routing_model": 55, "breaks": 0, "dummies": 0}),
    BenchmarkCase("CM:3", (2, 2, 4, 8), "cm", "K=1.3",
                  {"dispersion": 0.17, "lde": 0.39, "routing_model": 46, "breaks": 0, "dummies": 0}),
    BenchmarkCase("CM:4", (4, 4, 8, 8), "cm", "K=1.3",
                  {"dispersion": 0.26, "lde": 0.34, "routing_model": 69, "breaks": 0, "dummies": 0}),
    BenchmarkCase("CM:5", (4, 4, 4, 10, 10), "cm", "K=2",
                  {"dispersion": 0.23, "lde": 0.57, "routing_model": 99, "breaks": 0, "dummies": 0}),
)

TABLE2 = (
    BenchmarkCase("CM:1", (2, 2, 2, 2, 10), "cm", "K=2",
                  {"dispersion": 0.33, "lde": 0.92, "routing_model": 53, "breaks": 2, "dummies": 6}),
    BenchmarkCase("CM:2", (2, 2, 2, 6, 6), "cm", "K=2",
                  {"dispersion": 0.48, "lde": 0.82, "routing_model": 53, "breaks": 2, "dummies": 6}),
    BenchmarkCase("CDIP:1", (6, 6, 10, 10), "cdip", "K=2",
                  {"dispersion": 0.69, "lde": 0.01, "routing_model": 122, "breaks": 0, "dummies": 0}),
    BenchmarkCase("CDIP:2", (10, 10, 10, 10), "cdip", "K=2",
                  {"dispersion": 0.58, "lde": 0.07, "routing_model": 146, "breaks": 2, "dummies": 8}),
    BenchmarkCase("CDLP:1", (2, 2, 6, 6), "cdlp", "K=2",
                  {"dispersion": 0.17, "lde": 0.56, "routing_model": 43, "breaks": 0, "dummies": 0}),
    BenchmarkCase("CDLP:2", (6, 6, 6, 6), "cdlp", "K=1.3",
                  {"dispersion": 0.58, "lde": 0.22, "routing_model": 61, "breaks": 2, "dummies": 4}),
)

SUITES = {"table1": TABLE1, "table2": TABLE2}


def suite_cases(suite: str):
    """Cases of one suite, or both tables for "tables"."""
    if suite == "tables":
        return [("table1", c) for c in TABLE1] + [("table2", c) for c in TABLE2]
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose table1, table2, or tables")
    return [(suite, c) for c in SUITES[suite]]


def find_case(suite: str, name: str) -> BenchmarkCase:
    for _, case in suite_cases(suite):
        if case.name == name:
            return case
    raise ValueError(f"no case named {name!r} in suite {suite!r}")


def run_benchmarks(cases, cfg: SaConfig = SaConfig()) -> list[dict]:
    """Anneal each case and summarise its selected solution next to the
    published row.  ``cases`` holds (suite, BenchmarkCase) pairs or bare
    cases."""
    rows = []
    for entry in cases:
        suite, case = entry if isinstance(entry, tuple) else ("-", entry)
        nl = case.netlist()
        dims = case.dims()
        archive = run(nl, dims, cfg)
        best = select_solution(archive, cfg.selection_weights)
        o = best.objectives
        rows.append({
            "suite": suite,
            "case": case.name,
            "k": case.k,
            "units": list(case.units),
            "grid": [dims.rows, dims.cols],
            "archive_size": len(archive),
            "dispersion": -o.neg_dispersion,
            "lde": o.lde_mismatch,
            "routing_model": o.routing_cost,
            "breaks": o.diffusion_breaks,
            "dummies": o.dummy_count,
            "published": dict(case.published),
        })
    return rows


def format_table(rows) -> str:
    """Fixed-format text table; byte-stable for identical row data."""
    header = (
        f"{'suite':<8}{'case':<8}{'units':<18}{'disp':>8}{'lde':>9}"
        f"{'route':>7}{'brk':>5}{'dum':>5}   published(disp lde route brk dum)"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        pub = r["published"]
        lines.append(
            f"{r['suite']:<8}{r['case']:<8}{str(r['units']):<18}"
            f"{r['dispersion']:>8.4f}{r['lde']:>9.4f}{r['routing_model']:>7d}"
            f"{r['breaks']:>5d}{r['dummies']:>5d}   "
            f"{pub['dispersion']:.2f} {pub['lde']:.2f} {pub['routing_model']} "
            f"{pub['breaks']} {pub['dummies']}"
        )
    return "\n".join(lines) + "\n"
