"""``batch``: one library caller turning QASM text into counts or verdicts.

Every job gets a cold ``DDPackage``, as ``qdd-tool sim/verify`` does.  A
simulation job is parse -> step through every operation -> sample 1024
shots; it is then run again on its now-warm package, the library
counterpart of a service shard whose tables are hot.  Verification jobs
are parse both -> check.  Simulation uses the vector kernels and
verification the matrix kernels, so ``sim_s`` and ``verify_s`` show a
trade between the two kernel families.

Each job runs once per round, for as many rounds as the time allows, and
is timed by its fastest run, in this thread's CPU seconds scaled to
reference speed (``common.Clock``).  A simulation job with its warm
re-run, and a pass over the verification jobs, each run pinned to the CPU
that is fastest just before it (``Clock.pinned``).  A simulation job is
timed in segments (set-up, every step, sampling) and its time is the sum
of each segment's fastest run: a job of a second is rarely spared by every
burst of other load on the machine, its steps of a millisecond often are.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter, thread_time
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
import repro.verification
from repro import obs

import ddcounts
import inputs
from common import (
    CheckFailed, Clock, check, measure_import_s, peak_rss_mb,
    percentile, repeat_while,
)
from tracer import SpanTracer

#: Verification jobs are short; several passes per simulation pass give
#: each of them as many samples as the simulation jobs get rounds.
VERIFY_PASSES_PER_ROUND = 4

#: A simulation job's counts, its peak nodes and the segment CPU seconds of
#: its cold run and of its warm re-run (None when not run or failed).
SimOutcome = Tuple[Dict[str, int], int, List[float], Optional[List[float]]]
#: A verification job's counts, its peak nodes and its CPU seconds.
VerifyOutcome = Tuple[Dict[str, int], int, float]


class Batch:
    def __init__(self, seed: int):
        self.sims, self.verifies = inputs.batch_jobs(seed)
        self.attempted = 0
        self.failed = 0
        #: simulation job name -> one list of segment seconds (set-up, every
        #: step, sampling) per run, cold and warm
        self.cold: Dict[str, List[List[float]]] = defaultdict(list)
        self.warm: Dict[str, List[List[float]]] = defaultdict(list)
        #: verification job name -> seconds of each run
        self.verify: Dict[str, List[float]] = defaultdict(list)
        #: first observation of every job's exact outputs; later runs must
        #: repeat them bit for bit
        self._first: Dict[str, tuple] = {}
        self.vectors: Dict[str, np.ndarray] = {}
        self.clock = Clock()

    def _fail(self, job: str, error: Exception) -> None:
        self.failed += 1
        print(f"batch: {job}: {error}", file=sys.stderr)

    def _repeat(self, job: str, signature: tuple) -> None:
        first = self._first.setdefault(job, signature)
        check(first == signature, f"outputs differ between runs: {first} != {signature}")

    @staticmethod
    def _simulate(qasm: str, package=None) -> tuple:
        """Parse, step through every operation and sample 1024 shots, on a
        new package unless one is given.  Returns the simulator, the counts
        and the CPU seconds of each segment: set-up, every step, sampling."""
        segments = []
        start = thread_time()
        simulator = repro.DDSimulator(repro.parse_qasm(qasm),
                                      package=package or repro.DDPackage(), seed=0)
        segments.append(thread_time() - start)
        while not simulator.at_end:
            start = thread_time()
            simulator.step_forward()
            segments.append(thread_time() - start)
        start = thread_time()
        shots = simulator.sample_counts(inputs.SHOTS_BATCH, seed=0)
        segments.append(thread_time() - start)
        return simulator, shots, segments

    def sim_job(self, job: inputs.SimJob, warm: bool) -> Optional[SimOutcome]:
        """``job`` on a cold package, then again on the warm one when
        ``warm``; None when the cold run failed."""
        self.attempted += 1
        try:
            simulator, shots, segments = self._simulate(job.qasm)
            package = simulator.package
            counts = ddcounts.snapshot(package)
            nodes, peak = simulator.node_count(), simulator.peak_node_count
            check(nodes == job.expect_nodes, f"final DD has {nodes} nodes, expected {job.expect_nodes}")
            check(peak == job.expect_peak, f"peak {peak} nodes, expected {job.expect_peak}")
            check(sum(shots.values()) == inputs.SHOTS_BATCH, "sample counts do not sum to the shots")
            self._repeat(job.name, (nodes, peak, tuple(sorted(counts.items())),
                                    tuple(sorted(shots.items()))))
            if job.dense_check and job.name not in self.vectors:
                self.vectors[job.name] = package.to_vector(simulator.state,
                                                           simulator.circuit.num_qubits)
        except (CheckFailed, repro.ReproError) as error:
            self._fail(job.name, error)
            return None
        warm_segments = None
        if warm:
            self.attempted += 1
            try:
                _, repeat_shots, warm_segments = self._simulate(job.qasm, package)
                check(repeat_shots == shots, "a warm re-run samples different counts")
            except (CheckFailed, repro.ReproError) as error:
                self._fail(job.name + " (warm)", error)
                warm_segments = None
        return counts, peak, segments, warm_segments

    def verify_job(self, job: inputs.VerifyJob) -> Optional[VerifyOutcome]:
        """None when the job failed."""
        self.attempted += 1
        try:
            start = thread_time()
            left = repro.parse_qasm(job.left, name="G")
            right = repro.parse_qasm(job.right, name="G'")
            package = repro.DDPackage()
            if job.strategy == "construct":
                result = repro.verification.check_equivalence_construct(left, right, package=package)
            else:
                result = repro.verification.check_equivalence_alternating(
                    left, right, strategy=repro.ApplicationStrategy(job.strategy),
                    package=package,
                )
            elapsed = thread_time() - start
            counts = ddcounts.snapshot(package)
            verdict = result.equivalent_up_to_global_phase
            check(verdict == job.expect_equivalent, f"verdict {verdict}, expected {job.expect_equivalent}")
            if job.expect_peak is not None:
                check(result.max_nodes == job.expect_peak,
                      f"peak {result.max_nodes} nodes, expected {job.expect_peak}")
            self._repeat(job.name, (verdict, result.max_nodes, tuple(sorted(counts.items()))))
        except (CheckFailed, repro.ReproError) as error:
            self._fail(job.name, error)
            return None
        return counts, result.max_nodes, elapsed

    def verify_pass(self) -> List[Optional[VerifyOutcome]]:
        return [self.verify_job(job) for job in self.verifies]

    def timed_round(self) -> None:
        """One simulation pass with warm re-runs, then verification passes,
        each simulation job and each verification pass pinned."""
        for job in self.sims:
            outcome = self.clock.pinned(functools.partial(self.sim_job, job, True))
            if outcome is None:
                continue
            self.cold[job.name].append(outcome[2])
            if outcome[3] is not None:
                self.warm[job.name].append(outcome[3])
        for _ in range(VERIFY_PASSES_PER_ROUND):
            for job, outcome in zip(self.verifies, self.clock.pinned(self.verify_pass)):
                if outcome is not None:
                    self.verify[job.name].append(outcome[2])

    def plain_round(self) -> Dict[str, object]:
        """One cold simulation pass and one verification pass, each job and
        the pass pinned: the unit the traced run compares across its
        phases."""
        sim_counts, ver_counts, sim_peak, ver_peak = [], [], 0, 0
        for job in self.sims:
            outcome = self.clock.pinned(functools.partial(self.sim_job, job, False))
            if outcome is not None:
                sim_counts.append(outcome[0])
                sim_peak += outcome[1]
                self.cold[job.name].append(outcome[2])
        for job, outcome in zip(self.verifies, self.clock.pinned(self.verify_pass)):
            if outcome is not None:
                ver_counts.append(outcome[0])
                ver_peak += outcome[1]
                self.verify[job.name].append(outcome[2])
        return {
            "counts": ddcounts.total(sim_counts + ver_counts),
            "dd_peak": sim_peak,
            "verify_peak": ver_peak,
        }

    def dense_oracle(self) -> None:
        """Amplitudes of the small simulation jobs against the dense
        state-vector simulator (outside every timed region)."""
        for job in self.sims:
            vector = self.vectors.get(job.name)
            if vector is None:
                continue
            dense = repro.StatevectorSimulator(repro.parse_qasm(job.qasm)).run()
            if not np.allclose(vector, dense, atol=1e-6):
                self._fail(job.name, CheckFailed("amplitudes differ from the dense simulator"))


def _warm_up() -> None:
    """Lazy imports inside the library happen once per process; pay them
    before timing with the smallest jobs of each kind."""
    qft3 = repro.library.qft(3)
    repro.DDSimulator(qft3, seed=0).run_all()
    repro.verification.check_equivalence_alternating(
        qft3, repro.library.qft_compiled(3),
        strategy=repro.ApplicationStrategy.COMPILATION_FLOW,
    )
    repro.verification.check_equivalence_construct(qft3, repro.library.qft_compiled(3))


def _segmented(runs: List[List[float]], factor: float) -> float:
    """A simulation job's time: the sum of its segments' fastest times over
    the runs, in reference-speed seconds."""
    return factor * sum(min(column) for column in zip(*runs))


def run_untraced(seed: int, seconds: float) -> tuple:
    setup_s = measure_import_s()
    batch = Batch(seed)
    _warm_up()
    repeat_while(seconds, batch.timed_round)
    rss = peak_rss_mb()
    batch.dense_oracle()
    factor = batch.clock.unloaded()
    cold = [_segmented(runs, factor) for runs in batch.cold.values() if runs]
    warm = [_segmented(runs, factor) for runs in batch.warm.values() if runs]
    verify = [factor * min(runs) for runs in batch.verify.values() if runs]
    # Each step's fastest time over the cold runs of its job.
    steps = [factor * min(column) for runs in batch.cold.values()
             for column in list(zip(*runs))[1:-1]]
    sim_s, verify_s = sum(cold), sum(verify)
    metrics = {
        "sim_s": sim_s,
        "verify_s": verify_s,
        "step_p50_ms": 1e3 * percentile(steps, 0.50),
        "step_p99_ms": 1e3 * percentile(steps, 0.99),
        "rps": (len(cold) + len(verify)) / (sim_s + verify_s),
        "cached_p50_ms": 1e3 * percentile(warm, 0.50),
        "uncached_p50_ms": 1e3 * percentile(cold, 0.50),
        "p99_ms": 1e3 * percentile(cold + verify, 0.99),
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    return metrics, batch.attempted, batch.failed


def run_traced(seed: int, seconds: float) -> tuple:
    """Untraced, observability-off and traced rounds in turn, so that a
    change in the machine's speed hits all three alike; per-layer times
    are the fastest over the traced rounds, in reference-speed seconds.
    The overhead shares compare the three kinds of round by their pass
    times built as in the untraced run (fastest segments and jobs)."""
    import_s = measure_import_s()
    batch = Batch(seed)
    _warm_up()
    tracer = SpanTracer()
    plain, dark, traced = [], [], []
    #: per kind of round, the (cold, verify) timings of its jobs
    timings = {kind: (defaultdict(list), defaultdict(list)) for kind in ("plain", "dark", "traced")}

    def round_of(kind: str, body) -> Dict[str, object]:
        batch.cold, batch.verify = timings[kind]
        return body()

    def cycle() -> None:
        plain.append(round_of("plain", batch.plain_round))
        obs.set_enabled(False)
        try:
            dark.append(round_of("dark", batch.plain_round))
        finally:
            obs.set_enabled(True)
        with tracer:
            traced.append(round_of("traced", lambda: tracer.record(batch.plain_round)))

    def pass_s(kind: str) -> float:
        cold, verify = timings[kind]
        return (sum(_segmented(runs, 1.0) for runs in cold.values())
                + sum(min(runs) for runs in verify.values()))

    repeat_while(seconds, cycle)
    with tracer:
        breakdown = job_breakdown(batch, tracer)
    batch.dense_oracle()
    for rounds in (plain, dark, traced):
        for result in rounds:
            if result["counts"] != traced[0]["counts"]:
                batch._fail("round", CheckFailed("DD counts differ between rounds"))
    print("batch per-job self seconds: " + repr(breakdown), file=sys.stderr)

    factor = batch.clock.unloaded()

    def span(name: str) -> float:
        return factor * min(r["total"].get(name, 0.0) for r in traced)

    plain_s = pass_s("plain")
    metrics = {
        **ddcounts.metrics(traced[0]["counts"]),
        "dd.peak_nodes": traced[0]["dd_peak"],
        "verify.peak_nodes": traced[0]["verify_peak"],
        "qasm.parse_s": span("qasm.parse"),
        "dd.apply_s": span("dd.apply"),
        "sim.step_s": span("sim.step"),
        "sim.steps": traced[0]["calls"].get("sim.step", 0),
        "sampling.sample_s": span("sampling.sample"),
        "verify.check_s": span("verify.alternating") + span("verify.construct"),
        "obs.overhead_share": 1.0 - pass_s("dark") / plain_s,
        "trace.overhead_share": pass_s("traced") / plain_s - 1.0,
        "setup.import_s": import_s,
    }
    return metrics, batch.attempted, batch.failed


def job_breakdown(batch: Batch, tracer: SpanTracer) -> Dict[str, Dict[str, float]]:
    """Self seconds per span for each simulation job run alone, plus the
    job's untraced remainder (package set-up, harness) as ``other``."""
    table = {}
    for job in batch.sims:
        tracer.reset()
        start = perf_counter()
        batch.sim_job(job, warm=False)
        elapsed = perf_counter() - start
        row = {name: round(value, 4) for name, value in tracer.self_time.items()}
        row["other"] = round(elapsed - sum(tracer.self_time.values()), 4)
        table[job.name] = row
    return table
