"""Outside-in tracing of the program's layers.

The tracer replaces public functions at the module (or class) attribute
their caller looks up, records one span per call (name, start, end, parent)
plus a few counts in memory, and restores the originals afterwards.  No
program file changes, and the wrapped calls return exactly what the
originals return, so a traced anneal produces the same archive.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
from collections import Counter, defaultdict
from time import perf_counter

from ccplace import anneal, netlist, objectives, placement, report, routing


def _count_moves(tracer, args, result):
    tracer.counts["moves"] += result is not args[1]


def _count_candidates(tracer, args, result):
    tracer.counts["candidates_out"] += len(result)
    tracer.counts["empty_steps"] += not result


def _count_admitted(tracer, args, result):
    tracer.counts["archive_admitted"] += bool(result)


def _count_net_lookups(tracer, args, result):
    # routing_cost looks up every route net with at least two pins; a net's
    # pin count is the unit count of its member devices.
    nl = args[1]
    if tracer.routed[0] is not nl:
        units = {d.name: d.unit_count for d in nl.devices}
        tracer.routed = (nl, sum(1 for _, members in nl.route_nets
                                 if sum(units[m] for m in members) >= 2))
    tracer.counts["net_lookups"] += tracer.routed[1]


def _count_pins(tracer, args, result):
    tracer.counts["miss_pins"] += len(args[0])


def _count_bytes(tracer, args, result):
    tracer.counts["report_bytes"] += len(result.encode("utf-8"))


# (owner, attribute, span name, count hook).  The owner is where the caller
# looks the name up: enumerate_perturbations calls placement's own
# count_diffusion_breaks, evaluate calls the one imported into objectives.
PROBES = (
    (netlist, "parse_netlist", "netlist.parse", None),
    (anneal, "initial_placement", "anneal.initial_placement", None),
    (anneal.CcAnnealer, "step", "anneal.step", _count_moves),
    (anneal.CcAnnealer, "evaluate", "anneal.eval", None),
    (anneal.Archive, "insert", "anneal.archive_insert", _count_admitted),
    (anneal, "select_solution", "anneal.select", None),
    (anneal, "enumerate_perturbations", "placement.perturb", _count_candidates),
    (placement, "swap_mirrored", "placement.swap", None),
    (placement, "transform_xy180", "placement.label_exchange", None),
    (placement, "count_diffusion_breaks", "placement.break_check", None),
    (placement, "count_dummies", "placement.dummy_check", None),
    (anneal, "evaluate", "objectives.evaluate", None),
    (objectives, "dispersion", "objectives.dispersion", None),
    (objectives, "lde_mismatch", "objectives.lde", None),
    (objectives, "count_diffusion_breaks", "objectives.breaks", None),
    (objectives, "count_dummies", "objectives.dummies", None),
    (objectives, "routing_cost", "routing.cost", _count_net_lookups),
    (routing, "net_cost", "routing.net_cost", _count_pins),
    (routing, "steiner_improve", "routing.steiner", None),
    (routing, "rmst", "routing.rmst", None),
    (report, "report_to_json", "report.to_json", _count_bytes),
)


class Tracer:
    """Spans and counts of the calls made while ``installed()`` is active."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.routed: tuple = (None, 0)  # (netlist, route nets with two or more pins)
        self._stack: list[int] = []

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, hook in PROBES:
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, hook))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def totals(self):
        """Per span name: (total seconds, self seconds, calls), plus the summed
        duration of the spans no other span encloses."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        top = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
            if parent < 0:
                top += end - start
        return total, own, calls, top

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start and end in seconds
        from the first span, and the parent's line number (-1 for none)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9), parent]) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  archive_sizes, from_json_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    total, own, calls, top = tracer.totals()
    c = tracer.counts
    built = calls["placement.swap"] + calls["placement.label_exchange"]
    breaks, dummies = calls["placement.break_check"], calls["placement.dummy_check"]
    steps, evals = calls["anneal.step"], calls["anneal.eval"]
    unique = calls["objectives.evaluate"]
    misses = calls["routing.net_cost"]
    return {
        "netlist.parse_s": (total["netlist.parse"], "s"),
        "placement.perturb_s": (total["placement.perturb"], "s"),
        "placement.perturb_calls": (calls["placement.perturb"], "count"),
        "placement.perturb_self_s": (own["placement.perturb"], "s"),
        "placement.label_exchange_s": (total["placement.label_exchange"], "s"),
        "placement.label_exchange_calls": (calls["placement.label_exchange"], "count"),
        "placement.swap_s": (total["placement.swap"], "s"),
        "placement.candidates_built": (built, "count"),
        "placement.candidates_out": (c["candidates_out"], "count"),
        "placement.admit_frac": (_ratio(c["candidates_out"], built), "fraction"),
        "placement.break_checks": (breaks, "count"),
        "placement.dummy_checks": (dummies, "count"),
        "placement.reject_cc_or_noop": (built - breaks, "count"),
        "placement.reject_breaks": (breaks - dummies, "count"),
        "placement.reject_dummies": (dummies - c["candidates_out"], "count"),
        "objectives.evaluate_calls": (unique, "count"),
        "objectives.evaluate_s": (total["objectives.evaluate"], "s"),
        "objectives.evaluate_self_s": (own["objectives.evaluate"], "s"),
        "objectives.dispersion_s": (total["objectives.dispersion"], "s"),
        "objectives.lde_s": (total["objectives.lde"], "s"),
        "objectives.breaks_s": (total["objectives.breaks"], "s"),
        "objectives.dummies_s": (total["objectives.dummies"], "s"),
        "routing.cost_s": (total["routing.cost"], "s"),
        "routing.cost_calls": (calls["routing.cost"], "count"),
        "routing.net_cost_calls": (misses, "count"),
        "routing.net_cache_hit_frac": (1.0 - _ratio(misses, c["net_lookups"]), "fraction"),
        "routing.steiner_s": (total["routing.steiner"], "s"),
        "routing.rmst_s": (total["routing.rmst"], "s"),
        "routing.pins_per_miss": (_ratio(c["miss_pins"], misses), "pins"),
        "anneal.steps": (steps, "count"),
        "anneal.step_s": (total["anneal.step"], "s"),
        "anneal.step_self_s": (own["anneal.step"], "s"),
        "anneal.moves": (c["moves"], "count"),
        "anneal.move_frac": (_ratio(c["moves"], steps), "fraction"),
        "anneal.empty_steps": (c["empty_steps"], "count"),
        "anneal.eval_calls": (evals, "count"),
        "anneal.eval_cache_hit_frac": (1.0 - _ratio(unique, evals), "fraction"),
        "anneal.archive_insert_s": (total["anneal.archive_insert"], "s"),
        "anneal.archive_inserts": (calls["anneal.archive_insert"], "count"),
        "anneal.archive_admitted": (c["archive_admitted"], "count"),
        "anneal.archive_size": (_ratio(sum(archive_sizes), len(archive_sizes)), "count"),
        "anneal.initial_placement_s": (total["anneal.initial_placement"], "s"),
        "anneal.select_s": (total["anneal.select"], "s"),
        "report.to_json_s": (total["report.to_json"], "s"),
        "report.bytes": (c["report_bytes"], "B"),
        "report.from_json_s": (from_json_s, "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.overhead_frac": (_ratio(traced_wall - untraced_wall, untraced_wall), "fraction"),
        "trace.unattributed_s": (traced_wall - top, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
