"""Runs one workload: timed anneals, archive checks, metrics and output.

An anneal does what ``ccplace place`` does: parse the netlist JSON, build a
``CcAnnealer`` (initial placement and its evaluation), run the schedule,
select a solution and serialise the report.  Set-up is the part before the
first step.  Everything is called through the module attribute its caller
looks up, so the tracer sees the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import tracing
from ccplace import anneal, netlist, placement, report
from workloads import Instance, Workload, anneal_seed, build_workloads

# Set-up samples per instance in an untraced run, for the setup_s median.
# After each anneal the instance is set up again (parse and construct, no
# steps) until SETUP_SLICE_S has passed, so that cheap set-ups are sampled
# as often as SETUP_MAX times and across the whole run, like the anneals;
# instances short of SETUP_MIN samples are topped up at the end.
SETUP_MIN, SETUP_MAX, SETUP_SLICE_S = 3, 25, 0.02
SPANS_DIR = Path(__file__).resolve().parent / "out"


@dataclasses.dataclass
class Outcome:
    """One finished anneal and what its checks need."""

    instance: Instance
    netlist: netlist.Netlist
    dims: placement.GridDims
    db_max: int
    dummy_max: int
    solutions: list[anneal.Solution]
    selected: anneal.Solution
    report_text: str
    setup_s: float
    wall_s: float
    from_json_s: float = 0.0  # report_from_json in the check, outside wall_s


def schedule(cfg) -> tuple[int, int]:
    """(temperature levels, steps) of one anneal under ``cfg``."""
    levels, temp = 0, cfg.t_max
    while temp > cfg.t_min:
        levels += 1
        temp *= cfg.alpha
    return levels, levels * cfg.iters_per_temp


def set_up(inst: Instance, cfg):
    nl = netlist.parse_netlist(inst.netlist_json)
    dims = placement.GridDims(inst.rows, inst.cols)
    return nl, dims, anneal.CcAnnealer(nl, dims, cfg)


def anneal_once(inst: Instance, cfg) -> Outcome:
    t0 = perf_counter()
    nl, dims, annealer = set_up(inst, cfg)
    t1 = perf_counter()
    archive = annealer.run()
    best = anneal.select_solution(archive, cfg.selection_weights)
    solutions = list(archive)
    text = report.report_to_json(report.RunReport(
        seed=cfg.seed,
        config=dataclasses.asdict(cfg),
        dims=dims,
        netlist=report.netlist_to_dict(nl),
        archive=solutions,
        selected=solutions.index(best),
        ranges=annealer.ranges.bounds(),
    ))
    t2 = perf_counter()
    return Outcome(inst, nl, dims, annealer.db_max, annealer.dummy_max, solutions, best, text,
                   setup_s=t1 - t0, wall_s=t2 - t0)


class Run:
    """Anneals of one benchmark run: failures, quality and report timings."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.fronts: dict = {}
        self.eps: list[float] = []
        self.recall: list[float] = []
        self.feasible: list[bool] = []

    def anneal(self, inst: Instance, cfg, tracer=None) -> Outcome | None:
        """Anneal, then check the archive outside the timed region.  Returns
        None when the anneal raised; a failed check counts as a failure but
        keeps the outcome, whose timings are still valid."""
        self.attempted += 1
        try:
            with tracer.installed() if tracer is not None else contextlib.nullcontext():
                out = anneal_once(inst, cfg)
        except Exception:  # a crashing anneal is a measured failure, not the end of the run
            self.failed += 1
            print(f"anneal of {inst.name} (seed {cfg.seed}) raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        try:
            t0 = perf_counter()
            parsed = report.report_from_json(out.report_text)
            out.from_json_s = perf_counter() - t0
            problems = checks.archive_problems(out, parsed)
        except Exception as exc:  # a check that cannot run is a failed check
            problems = [f"checking raised {exc!r}"]
        if problems:
            self.failed += 1
            print(f"anneal of {inst.name} (seed {cfg.seed}) failed its checks: "
                  + "; ".join(problems[:5]), file=sys.stderr)
        else:
            self._score(out)
        return out

    def _score(self, out: Outcome) -> None:
        inst = out.instance
        if inst.published is not None:
            o = out.selected.objectives
            self.feasible.append(o.diffusion_breaks <= inst.published["breaks"]
                                 and o.dummy_count <= inst.published["dummies"])
        if self.workload.exact_front:
            key = (inst.name, out.db_max, out.dummy_max)
            if key not in self.fronts:
                self.fronts[key] = checks.exact_front(out.netlist, out.dims, out.db_max, out.dummy_max)
            front = self.fronts[key]
            vectors = [s.objectives.as_tuple() for s in out.solutions]
            self.eps.append(checks.additive_eps(vectors, front))
            self.recall.append(checks.recall(vectors, front))

    def info(self) -> dict:
        out = {"anneals": self.attempted, "failed_frac": self.failed / self.attempted}
        if self.feasible:
            out["table_feasible"] = len(self.workload.instances) * sum(self.feasible) / len(self.feasible)
        if self.eps:
            out["front_eps"] = statistics.fmean(self.eps)
            out["front_recall"] = statistics.fmean(self.recall)
        return out


def digest(outcomes) -> str:
    """sha256 over the sha256 of each report, in anneal order."""
    h = hashlib.sha256()
    for out in outcomes:
        text = out.report_text if out is not None else "anneal raised"
        h.update(hashlib.sha256(text.encode("utf-8")).hexdigest().encode("ascii"))
    return h.hexdigest()


def config(seed: int, pass_no: int, index: int):
    return anneal.SaConfig(seed=anneal_seed(seed, pass_no, index))


def measure(run: Run, seed: int, seconds: float):
    """Untraced run: pass 0 (every instance once), then further passes with
    fresh seeds until the anneals have taken ``seconds`` in all.  Returns the
    end-to-end metrics and information on the run, among it the digest of
    pass 0, which depends on the seed only, not on the run length."""
    instances = run.workload.instances
    walls, setups = defaultdict(list), defaultdict(list)
    timed = 0.0  # seconds spent inside anneals, checks excluded

    def set_up_again(index, inst):
        t0 = perf_counter()
        set_up(inst, config(seed, 0, index))
        setups[index].append(perf_counter() - t0)

    def record(index, inst, out):
        nonlocal timed
        if out is None:
            return
        walls[index].append(out.wall_s)
        setups[index].append(out.setup_s)
        timed += out.wall_s
        start = perf_counter()
        while len(setups[index]) < SETUP_MAX and perf_counter() - start < SETUP_SLICE_S:
            set_up_again(index, inst)

    first = []
    for index, inst in enumerate(instances):
        first.append(run.anneal(inst, config(seed, 0, index)))
        record(index, inst, first[-1])
    pass_no = 1
    while timed < seconds:
        for index, inst in enumerate(instances):
            if timed >= seconds:
                break
            record(index, inst, run.anneal(inst, config(seed, pass_no, index)))
        pass_no += 1
    for index, inst in enumerate(instances):
        if not walls[index]:
            raise SystemExit(f"error: no anneal of {inst.name} completed")
        while len(setups[index]) < SETUP_MIN:
            set_up_again(index, inst)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # One pass of the workload, each instance at its median over the run.
    wall = sum(statistics.median(walls[i]) for i in range(len(instances)))
    setup = sum(statistics.median(setups[i]) for i in range(len(instances)))
    steps = len(instances) * schedule(anneal.SaConfig())[1]
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (setup, "s"),
        "steps_per_s": (steps / (wall - setup), "steps/s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    extra = {"passes": pass_no, "digest": digest(first),
             "samples_per_instance": min(len(w) for w in walls.values())}
    return metrics, extra


def trace(run: Run, seed: int):
    """Traced run: each anneal of pass 0 once untraced and once traced, the
    order alternating between instances so that neither side always runs
    first.  Returns the per-layer metrics and whether both sides gave
    identical archives."""
    tracer = tracing.Tracer()
    untraced, traced = [], []
    for index, inst in enumerate(run.workload.instances):
        cfg = config(seed, 0, index)
        if index % 2:
            traced.append(run.anneal(inst, cfg, tracer))
            untraced.append(run.anneal(inst, cfg))
        else:
            untraced.append(run.anneal(inst, cfg))
            traced.append(run.anneal(inst, cfg, tracer))
    done = [o for o in traced if o is not None]
    metrics = tracing.layer_metrics(
        tracer,
        traced_wall=sum(o.wall_s for o in done),
        untraced_wall=sum(o.wall_s for o in untraced if o is not None),
        archive_sizes=[len(o.solutions) for o in done],
        from_json_s=sum(o.from_json_s for o in done),
    )
    SPANS_DIR.mkdir(exist_ok=True)
    spans_file = SPANS_DIR / f"spans-{run.workload.name}-seed{seed}.jsonl.gz"
    tracer.write(spans_file)
    same = digest(untraced) == digest(traced)
    extra = {"digest": digest(untraced), "traced_digest": digest(traced),
             "spans_file": str(spans_file.relative_to(SPANS_DIR.parent.parent))}
    return metrics, extra, same


def main(args) -> int:
    workloads = build_workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads)}",
              file=sys.stderr)
        return 2
    run = Run(workloads[args.workload])
    if args.trace:
        metrics, extra, same = trace(run, args.seed)
        if not same:
            print("error: traced and untraced archives differ", file=sys.stderr)
    else:
        metrics, extra = measure(run, args.seed, args.seconds)
        same = True
    cfg = anneal.SaConfig()
    levels, steps = schedule(cfg)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "schedule": {"t_max": cfg.t_max, "t_min": cfg.t_min, "alpha": cfg.alpha,
                     "iters_per_temp": cfg.iters_per_temp, "levels": levels, "steps": steps},
        "instances": len(run.workload.instances),
        **run.info(),
        **extra,
    }
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0 and same,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0
