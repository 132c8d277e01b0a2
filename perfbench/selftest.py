"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the yardsticks measure what they claim:

* the front-quality indicators score an exact front against itself as
  epsilon 0 and recall 1, and every small_exact instance fits the oracle
  budget;
* the outside-in trace reproduces the known counts of table2 CDIP:2 and
  CDLP:1 at ``SaConfig(seed=1)``;
* the archive digest is the same under two ``PYTHONHASHSEED`` values, and
  the same traced and untraced.

Exits with 1 when any check fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run

# Counts of the outside-in trace at SaConfig(seed=1), measured at the commit
# that introduced this benchmark.
CDIP2_COUNTS = {
    "anneal.steps": 2100,
    "anneal.moves": 66,
    "objectives.evaluate_calls": 180,
    "placement.break_checks": 1743,
    "placement.candidates_out": 321,
}


def check_fronts(failures: list[str]) -> None:
    from ccplace import anneal

    import checks
    import measure
    from workloads import build_workloads

    for inst in build_workloads()["small_exact"].instances:
        nl, dims, annealer = measure.set_up(inst, anneal.SaConfig())
        front = checks.exact_front(nl, dims, annealer.db_max, annealer.dummy_max)
        eps, rec = checks.additive_eps(front, front), checks.recall(front, front)
        print(f"front {inst.name}: {len(front)} vectors, self eps {eps}, self recall {rec}")
        if eps != 0 or rec != 1:
            failures.append(f"{inst.name}: front scored against itself gives eps {eps}, recall {rec}")


def check_counts(failures: list[str]) -> None:
    from ccplace import anneal

    import measure
    import tracing
    from workloads import build_workloads

    by_name = {inst.name: inst for inst in build_workloads()["tables"].instances}
    cfg = anneal.SaConfig(seed=1)
    tracer = tracing.Tracer()
    with tracer.installed():
        out = measure.anneal_once(by_name["table2/CDIP:2"], cfg)
    got = tracing.layer_metrics(tracer, out.wall_s, out.wall_s, [len(out.solutions)], 0.0)
    for name, want in CDIP2_COUNTS.items():
        value = got[name][0]
        print(f"CDIP:2 {name}: {value} (want {want})")
        if value != want:
            failures.append(f"CDIP:2 {name} is {value}, want {want}")
    out = measure.anneal_once(by_name["table2/CDLP:1"], cfg)
    print(f"CDLP:1 archive size: {len(out.solutions)} (want 1)")
    if len(out.solutions) != 1:
        failures.append(f"CDLP:1 archive size is {len(out.solutions)}, want 1")


def bench(workload: str, trace: int, hash_seed: str) -> dict:
    """Run the benchmark briefly in a fresh process; returns its info object
    merged with its result."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cmd = [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {**json.loads(lines[-2])["info"], **json.loads(lines[-1])}


def check_digests(failures: list[str]) -> None:
    for workload in ("small_exact", "tables"):
        a = bench(workload, 0, "0")
        b = bench(workload, 0, "12345")
        digests = {"PYTHONHASHSEED=0": a["digest"], "PYTHONHASHSEED=12345": b["digest"]}
        if workload == "small_exact":
            t = bench(workload, 1, "1")
            digests["untraced pass of the traced run"] = t["digest"]
            digests["traced pass"] = t["traced_digest"]
            if not t["correct"]:
                failures.append(f"{workload}: traced run is not correct")
        print(f"{workload} digests: {json.dumps(digests, indent=1)}")
        if len(set(digests.values())) != 1:
            failures.append(f"{workload}: archive digests differ: {digests}")
        if not (a["correct"] and b["correct"]):
            failures.append(f"{workload}: untraced run is not correct")


def main() -> int:
    run.use_checkout_sources()
    failures: list[str] = []
    check_fronts(failures)
    check_counts(failures)
    check_digests(failures)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
