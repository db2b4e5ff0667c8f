"""Solver benchmark entry point.

    python3 perfbench/run.py --workload ras-stiff --seed 0 --seconds 25 --trace 0

Runs from the root of a checkout and imports the solver from its src/
directory only; without it the benchmark exits with code 2 and prints no
result.  See bench.py for what a run measures.
"""

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="ocp solver benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import ocp
        if Path(ocp.__file__).resolve().parent.parent != SRC:
            raise ImportError(f"ocp found at {ocp.__file__}, outside {SRC}")
        import bench
    except ImportError as exc:
        print(f"perfbench: cannot load the solver: {exc}", file=sys.stderr)
        return 2
    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    return bench.run(args)


if __name__ == "__main__":
    sys.exit(main())
