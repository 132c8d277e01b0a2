"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the benchmark values reported next to the published ones.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from ccplace import (
    DeviceSpec,
    GridDims,
    Netlist,
    SaConfig,
    accept_probability,
    cc_enumerate,
    check_cc,
    delta_dom,
    dispersion,
    dispersion_oracle,
    dominates,
    evaluate,
    find_case,
    lde_mismatch,
    net_cost,
    rmst,
    routing_cost,
    run,
    steiner_oracle,
)
from ccplace.cli import main
from ccplace.placement import Placement

from conftest import make_grid, ranges_of


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({name}): PASS")


def pair_instance():
    nl = Netlist(
        (
            DeviceSpec("A", 4, gate_net="G", source_net="S", drain_net="D"),
            DeviceSpec("B", 4, gate_net="G", source_net="S", drain_net="D"),
        ),
        (("A", ("A",)), ("B", ("B",))),
    )
    return nl, GridDims(2, 4)


def assert_archive_sound(archive, nl, db_max, dummy_max):
    solutions = list(archive)
    for s in solutions:
        assert check_cc(s.placement).is_cc
        assert s.objectives.diffusion_breaks <= db_max
        assert s.objectives.dummy_count <= dummy_max
    for a in solutions:
        for b in solutions:
            if a is not b:
                assert not dominates(a.objectives, b.objectives) or \
                    not dominates(b.objectives, a.objectives)
                assert not dominates(a.objectives, b.objectives)


# -- shared benchmark runs (criteria 4, 5, 6) ---------------------------------

BENCH_CASES = [
    ("table1", "CM:1"),
    ("table1", "CM:2"),
    ("table1", "CM:3"),
    ("table1", "CM:4"),
    ("table1", "CM:5"),
    ("table2", "CDIP:1"),
    ("table2", "CDLP:2"),
]


@pytest.fixture(scope="module")
def bench_runs():
    out = {}
    for suite, name in BENCH_CASES:
        case = find_case(suite, name)
        nl = case.netlist()
        started = time.perf_counter()
        archive = run(nl, case.dims(), SaConfig(seed=1))
        elapsed = time.perf_counter() - started
        out[(suite, name)] = (case, nl, archive, elapsed)
    return out


# -- criteria ------------------------------------------------------------------


def test_criterion_1_formula_fidelity():
    with criterion(1, "dispersion matches the brute-force oracle exactly"):
        rng = random.Random(1234)
        started = time.perf_counter()
        checked = 0
        while checked < 200:
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 8)
            if rows * cols < 2:
                continue
            n_devices = rng.randint(2, 5)
            cells = []
            for _ in range(rows * cols):
                roll = rng.random()
                if roll < 0.1:
                    cells.append(None)
                else:
                    cells.append(chr(ord("A") + rng.randrange(n_devices)))
            p = Placement(GridDims(rows, cols), tuple(cells))
            assert dispersion(p) == dispersion_oracle(p)  # exact Fraction equality
            checked += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_domination_and_acceptance_arithmetic():
    with criterion(2, "domination amount and acceptance probability arithmetic"):
        r = ranges_of([(0, 1), (0, 1)])
        assert abs(delta_dom((0, 0), (1, 1), r) - 1.0) < 1e-12
        r2 = ranges_of([(0, 1), (0, 2)])
        assert abs(delta_dom((1, 2), (2, 4), r2) - 1.0) < 1e-12
        r3 = ranges_of([(0, 2), (0, 10)])
        assert abs(delta_dom((0, 5), (1, 5), r3) - 0.5) < 1e-12
        assert abs(accept_probability(2.0, 2.0) - 1.0 / (1.0 + math.e)) < 1e-12
        for t in (1e-7, 1e-3, 0.5, 1.0, 37.0, 100.0, 1e6):
            assert accept_probability(0.0, t) == 0.5


def test_criterion_3_steiner_sandwich():
    with criterion(3, "oracle <= steiner heuristic <= RMST on random nets"):
        started = time.perf_counter()
        rng = random.Random(777)
        strict_improvements = 0
        fig7 = [(1, 1), (5, 1), (3, 3)]
        nets = [fig7]
        while len(nets) < 500:
            k = rng.randint(1, 4)
            pts = set()
            while len(pts) < k:
                pts.add((rng.randint(1, 10), rng.randint(1, 10)))
            nets.append(sorted(pts))
        for pts in nets:
            tree_w = rmst(pts).total_weight()
            heur = net_cost(pts)
            exact = steiner_oracle(pts)
            assert exact <= heur <= tree_w, f"violated on {pts}"
            if heur < tree_w:
                strict_improvements += 1
        assert net_cost(fig7) == rmst(fig7).total_weight() - 2  # gain 4 - 2 = 2
        assert strict_improvements >= 1
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_4_cc_soundness(bench_runs):
    with criterion(4, "archives are CC, within bounds, and non-dominated each iteration"):
        nl, dims = pair_instance()

        def check(archive, cur, temp):
            sols = list(archive)
            for s in sols:
                assert check_cc(s.placement).is_cc
                assert s.objectives.diffusion_breaks == 0
                assert s.objectives.dummy_count == 0
            for a in sols:
                for b in sols:
                    if a is not b:
                        assert not dominates(a.objectives, b.objectives)

        archive = run(nl, dims, SaConfig(seed=7), on_iteration=check)
        assert_archive_sound(archive, nl, 0, 0)
        for case, case_nl, case_archive, _ in bench_runs.values():
            initial_breaks = max(s.objectives.diffusion_breaks for s in case_archive)
            initial_dummies = max(s.objectives.dummy_count for s in case_archive)
            assert_archive_sound(case_archive, case_nl, initial_breaks, initial_dummies)


def test_criterion_5_table1_feasibility(bench_runs):
    with criterion(5, "every Table-1 mirror admits a 0-break 0-dummy solution"):
        print()
        for suite, name in BENCH_CASES[:5]:
            case, nl, archive, elapsed = bench_runs[(suite, name)]
            assert elapsed <= 300.0, f"{name} took {elapsed:.0f}s"
            zero_free = [
                s for s in archive
                if s.objectives.diffusion_breaks == 0 and s.objectives.dummy_count == 0
            ]
            assert zero_free, f"{name}: no break-free dummy-free solution"
            best = max(zero_free, key=lambda s: -s.objectives.neg_dispersion)
            o = best.objectives
            pub = case.published
            print(
                f"  {name} {case.units}: ours disp={-o.neg_dispersion:.2f} "
                f"lde={o.lde_mismatch:.2f} route={o.routing_cost} breaks=0 dummies=0 "
                f"| published disp={pub['dispersion']} lde={pub['lde']} "
                f"route={pub['routing_model']} breaks={pub['breaks']} dummies={pub['dummies']} "
                f"({elapsed:.1f}s, archive {len(archive)})"
            )


def test_criterion_6_table2_improvement_direction(bench_runs):
    with criterion(6, "CDIP:1 reaches 0/0 and CDLP:2 stays within 2 breaks / 4 dummies"):
        case, nl, archive, elapsed = bench_runs[("table2", "CDIP:1")]
        assert elapsed <= 300.0
        assert any(
            s.objectives.diffusion_breaks == 0 and s.objectives.dummy_count == 0
            for s in archive
        ), "CDIP:1: no break-free dummy-free solution"

        case, nl, archive, elapsed = bench_runs[("table2", "CDLP:2")]
        assert elapsed <= 300.0
        assert any(
            s.objectives.diffusion_breaks <= 2 and s.objectives.dummy_count <= 4
            for s in archive
        ), "CDLP:2: no solution within 2 breaks / 4 dummies"


def test_criterion_7_small_instance_pareto():
    with criterion(7, "archive lies on the exhaustive frontier; published orderings hold"):
        nl, dims = pair_instance()
        everything = cc_enumerate(nl, dims)
        assert len(everything) == 8
        vectors = [evaluate(p, nl) for p in everything]
        frontier = {
            v.as_tuple()
            for v in vectors
            if not any(dominates(o, v) for o in vectors)
        }
        archive = run(nl, dims, SaConfig(seed=7))
        for s in archive:
            assert s.objectives.as_tuple() in frontier

        topo = {
            1: make_grid(["ABAB", "BABA"]),
            2: make_grid(["AABB", "BBAA"]),
            3: make_grid(["ABBA", "ABBA"]),
            4: make_grid(["ABBA", "BAAB"]),
        }
        disp = {k: dispersion(p) for k, p in topo.items()}
        assert disp[1] == max(disp.values()) and disp[1] > max(disp[2], disp[3], disp[4])
        assert disp[3] == min(disp.values()) and disp[3] < min(disp[1], disp[2], disp[4])
        route = {k: routing_cost(p, nl) for k, p in topo.items()}
        best_route = min(route.values())
        assert {k for k, v in route.items() if v == best_route} == {2, 3}
        lde = {k: lde_mismatch(p, nl) for k, p in topo.items()}
        assert lde[3] > 0
        assert lde[1] == lde[2] == lde[4] == 0


def test_criterion_8_byte_identical_reports(tmp_path):
    with criterion(8, "same seed and config give byte-identical reports"):
        doc = {
            "devices": [
                {"name": "A", "units": 4, "gate": "G", "source": "S", "drain": "D"},
                {"name": "B", "units": 4, "gate": "G", "source": "S", "drain": "D"},
            ],
            "route_nets": [
                {"net": "A", "members": ["A"]},
                {"net": "B", "members": ["B"]},
            ],
            "grid": {"rows": 2, "cols": 4},
        }
        netlist_path = tmp_path / "pair.json"
        netlist_path.write_text(json.dumps(doc))
        outputs = []
        # fresh interpreter per run, distinct hash seeds: the bytes must
        # depend on nothing but seed and config
        for k, hash_seed in ((1, "0"), (2, "12345")):
            out = tmp_path / f"r{k}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "ccplace.cli", "place", str(netlist_path),
                 "--seed", "7", "--out", str(out)],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert main(["render", str(tmp_path / "r1.json")]) == 0  # report is readable
