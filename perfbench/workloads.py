"""The benchmark's workloads.

Every instance reaches the program as netlist JSON text plus a grid, the way
``ccplace place`` receives a netlist file.  Instance shapes are fixed; the
workload seed only drives the ``SaConfig`` seeds, through ``anneal_seed``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from ccplace import bench, report


@dataclass(frozen=True)
class Instance:
    name: str
    netlist_json: str
    rows: int
    cols: int
    published: dict | None = None  # the published row of a bundled table case


@dataclass(frozen=True)
class Workload:
    """A named set of instances; BENCHMARK.json says why each was chosen."""

    name: str
    instances: tuple[Instance, ...]
    exact_front: bool = False  # score each archive against the enumerated Pareto front


def anneal_seed(seed: int, pass_no: int, index: int) -> int:
    """SaConfig seed of instance ``index`` in pass ``pass_no``; a pure function
    of its arguments, so the same workload seed gives the same anneals."""
    digest = hashlib.sha256(f"{seed}/{pass_no}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _from_netlist(name, nl, rows, cols, published=None) -> Instance:
    text = json.dumps(report.netlist_to_dict(nl), sort_keys=True)
    return Instance(name, text, rows, cols, published)


def _mirror_bank(name, outputs, units, rows, cols) -> Instance:
    """``outputs`` equal devices on common gate and source nets, each with a
    drain net of its own."""
    names = [f"M{i + 1}" for i in range(outputs)]
    doc = {
        "devices": [{"name": n, "units": units, "gate": "G", "source": "S", "drain": f"D{i + 1}"}
                    for i, n in enumerate(names)],
        "route_nets": [{"net": "G", "members": names}, {"net": "S", "members": names}]
                      + [{"net": f"D{i + 1}", "members": [n]} for i, n in enumerate(names)],
    }
    return Instance(name, json.dumps(doc, sort_keys=True), rows, cols)


def _tables() -> tuple[Instance, ...]:
    out = []
    for suite, case in bench.suite_cases("tables"):
        dims = case.dims()
        out.append(_from_netlist(f"{suite}/{case.name}", case.netlist(), dims.rows, dims.cols,
                                 dict(case.published)))
    return tuple(out)


def _small_exact() -> tuple[Instance, ...]:
    cm, cdip = bench.current_mirror_netlist, bench.cascode_diff_input_netlist
    return (
        _from_netlist("cm-4-4-4@2x6", cm([4, 4, 4]), 2, 6),
        _from_netlist("cm-4-4-4@4x3", cm([4, 4, 4]), 4, 3),
        _from_netlist("cm-2-2-2-6@3x4", cm([2, 2, 2, 6]), 3, 4),
        _from_netlist("cm-2-4-6@2x6", cm([2, 4, 6]), 2, 6),
        _from_netlist("cm-2-2-4@2x4", cm([2, 2, 4]), 2, 4),
        _from_netlist("cdip-4-4-2-2@2x6", cdip([4, 4, 2, 2]), 2, 6),
    )


def build_workloads() -> dict[str, Workload]:
    workloads = (
        Workload("tables", _tables()),
        # A mirror rather than a cascode pair: its unique-evaluation count
        # barely moves with the anneal seed, so run-to-run spread stays low.
        Workload("large_array",
                 (_from_netlist("cm-16x4@8x8", bench.current_mirror_netlist([16] * 4), 8, 8),)),
        Workload("many_devices", (_mirror_bank("bank-8x2@2x8", 8, 2, 2, 8),)),
        Workload("small_exact", _small_exact(), exact_front=True),
    )
    return {w.name: w for w in workloads}
