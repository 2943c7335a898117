"""Smoke-length self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload briefly, untraced and traced, and checks that

* every metric of BENCHMARK.json is printed, with its unit, and the
  outputs check out (``correct`` true, nothing failed);
* the exact counts of two traced runs with one seed are bit-identical;
* in a directory holding only BENCHMARK.json and this directory, the
  benchmark exits non-zero without printing a result.

Exits 0 when all hold.  Takes about two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

from common import END_TO_END, EXACT_COUNTS, PER_LAYER, ROOT

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7
SECONDS = "1"


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(workload: str, trace: int) -> dict:
    done = run(workload, trace)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
    assert line["correct"] is True and line["failed"] == 0, (workload, trace, done.stderr)
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    return line


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == END_TO_END, "BENCHMARK.json end_to_end != common.END_TO_END"
    assert declared_layer == PER_LAYER, "BENCHMARK.json per_layer != common.PER_LAYER"

    for workload in (w["name"] for w in spec["workloads"]):
        untraced = result(workload, 0)
        assert {k: v["unit"] for k, v in untraced["metrics"].items()} == declared_e2e
        for name, metric in untraced["metrics"].items():
            assert metric["value"] > 0, f"{workload}: {name} reads {metric['value']}"
        first, second = result(workload, 1), result(workload, 1)
        assert {k: v["unit"] for k, v in first["metrics"].items()} == declared_layer
        for name in EXACT_COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            assert a == b, f"{workload}: {name} differs between same-seed runs: {a} != {b}"
        print(f"{workload}: ok ({untraced['attempted']} operations untraced)")

    bare = tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run("batch", 0, cwd=bare)
        assert done.returncode != 0, "benchmark succeeded without the program"
        assert not done.stdout.strip(), f"printed a result without the program: {done.stdout}"
    finally:
        shutil.rmtree(bare)
    print("no program: exits", done.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
