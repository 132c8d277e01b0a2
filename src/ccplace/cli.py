"""Command-line front end: place a netlist, run benchmark suites, render reports."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

from .anneal import DEFAULT_SELECTION_WEIGHTS, CcAnnealer, SaConfig, select_solution
from .bench import format_table, run_benchmarks, suite_cases
from .netlist import NetlistError, load_json, netlist_from_dict, netlist_to_dict, read_grid
from .placement import GridDims, PlacementError
from .report import RunReport, render_placement, report_from_json, report_to_json


def default_grid_dims(total: int) -> GridDims:
    """Two rows for even arrays up to 24 units, else the most-square exact
    factorisation (prime counts degenerate to a single row).

    An odd total has only odd factors, so its grid is odd x odd and has the
    centre cell that a device with an odd unit count needs.
    """
    if total <= 24 and total % 2 == 0:
        return GridDims(2, total // 2)
    rows = 1
    k = 2
    while k * k <= total:
        if total % k == 0:
            rows = k
        k += 1
    return GridDims(rows, total // rows)


def _resolve_seed(arg_seed) -> int:
    if arg_seed is not None:
        return arg_seed
    env = os.environ.get("CCPLACE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"CCPLACE_SEED must be an integer, got {env!r}") from None
    return 0


def _add_anneal_flags(sub):
    sub.add_argument("--seed", type=int, default=None,
                     help="RNG seed (falls back to CCPLACE_SEED, then 0)")
    sub.add_argument("--tmax", type=float, default=SaConfig.t_max, help="initial temperature")
    sub.add_argument("--tmin", type=float, default=SaConfig.t_min, help="final temperature")
    sub.add_argument("--alpha", type=float, default=SaConfig.alpha, help="geometric cooling rate")
    sub.add_argument("--iters", type=int, default=SaConfig.iters_per_temp,
                     help="iterations per temperature level")


def _sa_config(args, **extra) -> SaConfig:
    """The anneal's config from the flags ``_add_anneal_flags`` adds, plus
    ``extra`` fields."""
    return SaConfig(t_max=args.tmax, t_min=args.tmin, alpha=args.alpha,
                    iters_per_temp=args.iters, seed=_resolve_seed(args.seed), **extra)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccplace",
        description="Common-centroid placement of analog transistor arrays "
                    "via multi-objective simulated annealing.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    place = subs.add_parser("place", help="optimise one netlist file")
    place.add_argument("netlist", help="netlist JSON file")
    place.add_argument("--rows", type=int, default=None, help="grid rows (requires --cols)")
    place.add_argument("--cols", type=int, default=None, help="grid columns (requires --rows)")
    _add_anneal_flags(place)
    place.add_argument("--db-max", type=int, default=None, help="diffusion break upper bound")
    place.add_argument("--dummy-max", type=int, default=None, help="dummy count upper bound")
    place.add_argument("--weights", type=float, nargs=5, metavar=("W1", "W2", "W3", "W4", "W5"),
                       default=DEFAULT_SELECTION_WEIGHTS,
                       help="selection weights: dispersion lde routing breaks dummies")
    place.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    place.add_argument("--timing", action="store_true",
                       help="include wall-clock time in the report (breaks byte-stability)")
    place.set_defaults(func=_cmd_place)

    bench = subs.add_parser("bench", help="run the bundled benchmark suites")
    bench.add_argument("--suite", default="tables", choices=["table1", "table2", "tables"],
                       help="which suite to run")
    bench.add_argument("--case", default=None, help="only cases whose name contains this substring")
    _add_anneal_flags(bench)
    bench.set_defaults(func=_cmd_bench)

    render = subs.add_parser("render", help="print a placement from a report file")
    render.add_argument("report", help="report JSON file produced by place")
    render.add_argument("--solution", type=int, default=None,
                        help="archive index to render (default: the selected solution)")
    render.set_defaults(func=_cmd_render)
    return parser


def _cmd_place(args) -> int:
    with open(args.netlist, encoding="utf-8") as fh:
        doc = load_json(fh.read())
    nl = netlist_from_dict(doc)
    if (args.rows is None) != (args.cols is None):
        raise ValueError("--rows and --cols must be given together")
    if args.rows is not None:
        dims = GridDims(args.rows, args.cols)
    else:
        file_grid = read_grid(doc)
        dims = GridDims(*file_grid) if file_grid else default_grid_dims(nl.total_units)
    cfg = _sa_config(
        args,
        db_max=args.db_max,
        dummy_max=args.dummy_max,
        selection_weights=tuple(args.weights),
    )
    started = time.perf_counter()
    annealer = CcAnnealer(nl, dims, cfg)
    archive = annealer.run()
    elapsed = time.perf_counter() - started

    solutions = list(archive)
    best = select_solution(archive, cfg.selection_weights)
    report = RunReport(
        seed=cfg.seed,
        config=dataclasses.asdict(cfg),
        dims=dims,
        netlist=netlist_to_dict(nl),
        archive=solutions,
        selected=solutions.index(best),
        ranges=annealer.ranges.bounds(),
        wall_clock_s=elapsed if args.timing else None,
    )
    payload = report_to_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        o = best.objectives
        print(f"archive: {len(solutions)} solutions; report written to {args.out}")
        print(f"selected: dispersion={-o.neg_dispersion:.4f} lde={o.lde_mismatch:.4f} "
              f"routing={o.routing_cost} breaks={o.diffusion_breaks} dummies={o.dummy_count}")
        print(render_placement(best.placement))
    else:
        sys.stdout.write(payload)
    print(f"completed in {elapsed:.2f}s", file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    cases = suite_cases(args.suite)
    if args.case:
        cases = [(s, c) for s, c in cases if args.case in c.name]
        if not cases:
            raise ValueError(f"no benchmark case matches {args.case!r}")
    cfg = _sa_config(args)
    started = time.perf_counter()
    rows = run_benchmarks(cases, cfg)
    sys.stdout.write(format_table(rows))
    print(f"completed in {time.perf_counter() - started:.2f}s", file=sys.stderr)
    return 0


def _cmd_render(args) -> int:
    with open(args.report, encoding="utf-8") as fh:
        report = report_from_json(fh.read())
    k = args.solution if args.solution is not None else report.selected
    if not (0 <= k < len(report.archive)):
        raise ValueError(f"solution index {k} out of range (archive has {len(report.archive)})")
    print(render_placement(report.archive[k].placement))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NetlistError, PlacementError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; the grid or the netlist is too large", file=sys.stderr)
        return 1


def run_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run_main()
