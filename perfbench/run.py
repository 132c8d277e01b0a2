"""Benchmark entry point: anneal one workload and print its metrics.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout.  It imports ccplace from that checkout's
``src`` directory and from nowhere else, and exits with status 2 when the
sources are missing.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it is an ``info`` object (machine, schedule, archive digest,
front quality).  See README.md in this directory for the workloads and the
metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_sources() -> None:
    """Put the checkout's ``src`` first on the import path, or exit with 2."""
    package = SRC / "ccplace"
    if not (package / "__init__.py").is_file():
        print(f"error: ccplace sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import ccplace

    if Path(ccplace.__file__).resolve().parent != package:
        print(f"error: imported ccplace from {ccplace.__file__}, not from {package}", file=sys.stderr)
        raise SystemExit(2)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep starting anneals until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one untraced and one traced pass, per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # One single-threaded process per workload.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    use_checkout_sources()
    import measure

    return measure.main(args)


if __name__ == "__main__":
    raise SystemExit(main())
