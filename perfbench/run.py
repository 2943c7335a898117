"""Run one workload of the benchmark and print its metrics as JSON.

    python3 perfbench/run.py --workload batch|session|service \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(every end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``).  Diagnostics go to standard error.  See README.md in this
directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

from common import END_TO_END, PER_LAYER, SRC, result_line

WORKLOADS = ("batch", "session", "service")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = importlib.import_module(args.workload)
    if args.trace:
        metrics, attempted, failed = workload.run_traced(args.seed, args.seconds)
        units = PER_LAYER
        metrics = {**dict.fromkeys(PER_LAYER, 0.0), **metrics}
    else:
        metrics, attempted, failed = workload.run_untraced(args.seed, args.seconds)
        units = END_TO_END
    print(json.dumps(result_line(failed == 0, attempted, failed, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
