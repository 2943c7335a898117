"""Shared helpers: metric catalogue, statistics, set-up timing, memory.

Every run prints every metric of its kind (all end-to-end metrics
untraced, all per-layer metrics traced).  A per-layer metric of a layer
the workload never enters reads 0.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Sequence, TypeVar

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

T = TypeVar("T")

#: name -> unit, in BENCHMARK.json order.
END_TO_END: Dict[str, str] = {
    "sim_s": "s",
    "verify_s": "s",
    "step_p50_ms": "ms",
    "step_p99_ms": "ms",
    "rps": "1/s",
    "cached_p50_ms": "ms",
    "uncached_p50_ms": "ms",
    "p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER: Dict[str, str] = {
    "qasm.parse_s": "s",
    "service.digest_ms": "ms",
    "dd.nodes_built": "count",
    "dd.unique_hit_ratio": "ratio",
    "dd.complex_lookups": "count",
    "dd.complex_hit_ratio": "ratio",
    "dd.apply_hit_ratio": "ratio",
    "dd.add_hit_ratio": "ratio",
    "dd.mult_hit_ratio": "ratio",
    "dd.gc_runs": "count",
    "dd.peak_nodes": "count",
    "dd.apply_s": "s",
    "sim.step_s": "s",
    "sim.steps": "count",
    "sampling.sample_s": "s",
    "verify.check_s": "s",
    "verify.peak_nodes": "count",
    "vis.layout_s": "s",
    "vis.dd_svg_s": "s",
    "vis.circuit_svg_s": "s",
    "vis.text_s": "s",
    "vis.svg_bytes_per_frame": "B",
    "tool.frames_retained_mb": "MB",
    "tool.frame_self_s": "s",
    "service.transport_ms": "ms",
    "service.job_ms": "ms",
    "worker.compute_ms": "ms",
    "service.dispatch_ms": "ms",
    "service.cache_hit_ratio": "ratio",
    "service.shard_skew": "ratio",
    "obs.overhead_share": "ratio",
    "trace.overhead_share": "ratio",
    "setup.import_s": "s",
    "setup.server_ready_s": "s",
}

#: Per-layer metrics that are exact counts: two runs with one seed must
#: report them bit-identically.
EXACT_COUNTS = (
    "dd.nodes_built",
    "dd.unique_hit_ratio",
    "dd.complex_lookups",
    "dd.complex_hit_ratio",
    "dd.apply_hit_ratio",
    "dd.add_hit_ratio",
    "dd.mult_hit_ratio",
    "dd.gc_runs",
    "dd.peak_nodes",
    "sim.steps",
    "verify.peak_nodes",
    "vis.svg_bytes_per_frame",
    "tool.frames_retained_mb",
)

#: Times in set-up are taken as the median of this many repetitions.
SETUP_REPEATS = 7

#: Seconds :func:`reference_work` takes at reference speed: its fastest
#: run on an x86-64 vCPU at 2.1 GHz with CPython 3.11, unloaded.
REFERENCE_S = 0.0020


class CheckFailed(Exception):
    """An output of the program differs from the expected one."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with >= q of the data
    at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def ratio(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


_IMPORT_PROBE = (
    "import time\n"
    "start = time.thread_time()\n"
    "import repro\n"
    "repro.DDPackage()\n"
    "print(time.thread_time() - start)\n"
)


def _import_probe_s() -> float:
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=60, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def measure_import_s() -> float:
    """Median time for a fresh interpreter to import ``repro`` and build
    its first package (interpreter start-up itself excluded), in the
    importing thread's CPU seconds.  Each interpreter inherits the CPU of
    :meth:`Clock.pinned` and is scaled to reference speed by that CPU's
    speed sampled just before it: an import is shorter than the spells in
    which a CPU runs slow."""
    clock = Clock()
    samples = []
    for _ in range(SETUP_REPEATS):
        seconds = clock.pinned(_import_probe_s)
        samples.append(seconds * clock.factors[-1])
    return median(samples)


def reference_work() -> int:
    """A fixed pure-Python workload that is not part of the program: hash
    consing of tuples in a dict, complex arithmetic and recursion, the
    operations a DD package spends its time on."""
    table = {}

    def node(level, weight):
        key = (level, round(weight.real, 9), round(weight.imag, 9))
        found = table.get(key)
        if found is None:
            if level:
                found = (level, weight, node(level - 1, weight * (0.6 + 0.8j)),
                         node(level - 1, weight * (0.8 - 0.6j)))
            else:
                found = (level, weight, None, None)
            table[key] = found
        return found

    for start in range(32):
        node(8, complex(1.0, start / 7.0))
    return len(table)


def reference_s(cpu: int) -> float:
    """The fastest of three runs of :func:`reference_work` on ``cpu``, in
    this thread's CPU seconds.  Leaves the thread pinned to ``cpu``."""
    os.sched_setaffinity(0, {cpu})
    fastest = math.inf
    for _ in range(3):
        start = time.thread_time()
        reference_work()
        fastest = min(fastest, time.thread_time() - start)
    return fastest


def cpu_speeds() -> Dict[int, float]:
    """How much faster each CPU this thread may use would run this moment's
    work at reference speed: ``REFERENCE_S`` over its :func:`reference_s`."""
    cpus = os.sched_getaffinity(0)
    try:
        return {cpu: REFERENCE_S / reference_s(cpu) for cpu in sorted(cpus)}
    finally:
        os.sched_setaffinity(0, cpus)


def speed_factor() -> float:
    """How much faster the machine would run this moment's work at
    reference speed: the fastest of :func:`cpu_speeds` (the CPUs of a
    shared machine slow down one at a time, and the scheduler runs work
    where it finds room)."""
    return max(cpu_speeds().values())


def mean_speed() -> float:
    """The mean of :func:`cpu_speeds`: the speed of work spread over every
    CPU."""
    return statistics.fmean(cpu_speeds().values())


class Clock:
    """The machine's speed over a run, for reporting reference-speed seconds.

    The machines this runs on are shared.  Other load slows every process
    on them, in bursts of milliseconds and in spells of seconds to minutes
    by up to 2x, each CPU on its own, so a time measured during a spell
    says more about the neighbours than about the program.  A run samples
    the speed between pieces of work and reports each time as it would
    read at reference speed.  Work repeated within a run is timed by its
    fastest repetition (the least disturbed one, as Python's ``timeit``
    advises), scaled by :meth:`unloaded`, the speed of the run's least
    disturbed moments.
    """

    def __init__(self) -> None:
        self.factors: List[float] = []
        self.sample()

    def sample(self) -> float:
        """Sample the speed now; returns its :func:`speed_factor`."""
        factor = speed_factor()
        self.factors.append(factor)
        return factor

    def pinned(self, body: Callable[[], T]) -> T:
        """Sample the speed, then run ``body()`` pinned to the CPU that was
        fastest, after a full garbage collection.

        For single-threaded work timed in this thread's CPU seconds
        (``time.thread_time``): those leave out the time the thread waited
        for a CPU, behind another process or, where the kernel accounts
        steal time, behind the host, and pinning keeps the work on the CPU
        whose speed was sampled, the one least slowed by its neighbours.
        The collection makes the collector's pauses fall at the same points
        in every repetition.
        """
        speeds = cpu_speeds()
        cpu = max(speeds, key=speeds.get)
        self.factors.append(speeds[cpu])
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        try:
            gc.collect()
            return body()
        finally:
            os.sched_setaffinity(0, cpus)

    def since_last(self) -> float:
        """Sample the speed now; returns the factor of the region since the
        previous sample: the higher of the two (the lower is taken to be a
        burst)."""
        before = self.factors[-1]
        return max(before, self.sample())

    def unloaded(self) -> float:
        """The factor of the run's least disturbed moments: the 90th
        percentile of the samples."""
        return percentile(self.factors, 0.9)


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat_while(seconds: float, body: Callable[[], T]) -> List[T]:
    """The results of calling ``body`` once, then again until ``seconds``
    have passed since the first call began."""
    end = time.perf_counter() + seconds
    results = [body()]
    while time.perf_counter() < end:
        results.append(body())
    return results


def result_line(correct: bool, attempted: int, failed: int, metrics: Dict[str, float],
                units: Dict[str, str]) -> Dict[str, object]:
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
