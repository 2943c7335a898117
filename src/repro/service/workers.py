"""Watchdog-supervised worker shards for one-shot simulate/verify jobs.

:class:`DDPackage` instances are not thread-safe, and a busy batch endpoint
must not serialize all clients behind one package.  The pool therefore runs
jobs in dedicated worker *processes*, one job at a time each, and every job
builds a fresh, memory-budgeted package of its own (:func:`job_package`)
that is dropped when the job ends.  A package shared across jobs would make
answers depend on history: the complex table snaps near-equal weights to
the oldest *stored* representative within tolerance, so what earlier jobs
stored changes what a later job builds.  Exact repeats never reach a worker anyway: the
service's result cache answers them.

A job goes to whichever shard becomes free first.  A killed worker is
respawned *in place* under the same shard id, and
``service_shard_jobs_total{shard=...}`` counts jobs per shard.

Unlike a ``multiprocessing.Pool`` (whose ``get(timeout)`` abandons the
result but leaves the worker churning on the stuck job forever), every
worker here is supervised by a *request watchdog*: the parent waits on the
worker's pipe with a per-request wall-clock deadline and, on overrun,
**kills** the worker process and respawns a fresh one — the runaway
computation is actually stopped, not merely ignored.  Kills are counted in
``service_watchdog_kills_total``.

Jobs also participate in memory governance: the configured
:class:`~repro.dd.governance.MemoryBudget` governs each job's package while
it runs, and after the job the worker collects that package if it still
shows pressure and reports its counts back alongside the result.  The pool
adds each report's GC and sanitizer counts to its totals.  If a job's
package remains at HARD pressure even after collecting (live data alone
exceeds the budget), the pool sheds load for a cooldown period:
``submit`` raises :class:`~repro.errors.TablePressureError`, which the
HTTP layer maps to ``503`` with a ``Retry-After`` header — bounded memory
instead of fast-until-OOM.

Job functions are module-level so they pickle, take only plain-data
arguments (QASM text, ints, strings) and return plain dicts — the JSON the
endpoint will serve.

``workers=0`` selects *inline* mode: jobs run in the calling thread, one
at a time.  That keeps unit tests and single-user deployments free of
subprocess machinery while exercising the exact same job functions (the
watchdog cannot kill the calling thread, so deadlines are not enforced
inline; pressure shedding still works).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.connection
import queue
import threading
import time
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import errors as _errors
from repro.errors import (
    BadRequestError,
    CircuitTooLargeError,
    JobTimeoutError,
    ServiceError,
    ServiceUnavailableError,
    TablePressureError,
)
from repro.dd.governance import MemoryBudget, PressureLevel
from repro.obs.metrics import DEFAULT_TIME_BUCKETS, MetricsRegistry

__all__ = ["WorkerPool", "simulate_job", "verify_job"]

#: Budget and package of the job the current thread runs.  Job functions
#: keep plain-data signatures (the pipe carries names and plain args, and
#: library callers run `simulate_job` directly), so the package a job
#: builds reaches `_run_job` through this slot, emptied after every job.
_JOB = threading.local()


def job_package():
    """A fresh decision-diagram package for the running job.

    Inside a pool job the package is built on first use, carries the
    pool's memory budget and is reported on and dropped when the job ends,
    so no table state carries from one job to the next.  Outside a pool
    job (a library caller running :func:`simulate_job` directly) every
    call builds a new unbudgeted package.
    """
    from repro.dd.package import DDPackage

    package = getattr(_JOB, "package", None)
    if package is None:
        budget = getattr(_JOB, "budget", None)
        # Jobs keep a dark registry: service-level metrics are recorded in
        # the parent, and a disabled registry keeps the simulation hot
        # path free of instrumentation cost.
        package = DDPackage(registry=MetricsRegistry(enabled=False), budget=budget)
        if budget is not None:
            _JOB.package = package
    return package


@contextlib.contextmanager
def depth_limited() -> Iterator[None]:
    """Report a diagram too deep for the interpreter's recursion limit as a
    circuit too large (413) rather than an internal error.

    The DD recursion descends one Python frame per qubit level, so it
    overflows near 250 qubits, while the parser admits 256 qubits per
    register and 1,024 across registers.  The interpreter's recursion
    limit is thus the deepest diagram a job or a session step handles; any
    overflow below it is reported this way.  A job builds its own package
    and drops it at the end.  A session keeps its package and the state of
    its last completed step: the kernels store only finished results in
    the shared tables, so an overflow leaves no half-built entry behind.
    Used as ``with depth_limited():`` and as the decorator
    ``@depth_limited()``.
    """
    try:
        yield
    except RecursionError:
        raise CircuitTooLargeError(
            "the circuit's decision diagram is too deep to process "
            "(interpreter recursion limit)"
        ) from None


@depth_limited()
def simulate_job(qasm: str, shots: int = 0, seed: Optional[int] = 0) -> Dict[str, Any]:
    """Parse, simulate to the end, optionally sample; return a JSON dict."""
    from repro.dd import sampling
    from repro.qc.qasm.parser import parse_qasm
    from repro.simulation.simulator import DDSimulator

    circuit = parse_qasm(qasm)
    package = job_package()
    simulator = DDSimulator(circuit, package=package, seed=seed)
    try:
        simulator.run_all()
        counts = None
        if shots:
            import numpy as np

            rng = np.random.default_rng(seed)
            counts = sampling.sample_counts(package, simulator.state, shots, rng)
        return {
            "circuit": circuit.name,
            "num_qubits": circuit.num_qubits,
            "operations": len(circuit),
            "nodes": simulator.node_count(),
            "peak_nodes": simulator.peak_node_count,
            "classical_bits": list(simulator.classical_bits),
            "counts": counts,
        }
    finally:
        simulator.close()  # release the history's governor roots


@depth_limited()
def verify_job(left_qasm: str, right_qasm: str, strategy: str = "proportional") -> Dict[str, Any]:
    """Equivalence-check two QASM circuits; return a JSON dict."""
    from repro.qc.qasm.parser import parse_qasm
    from repro.verification import (
        ApplicationStrategy,
        check_equivalence_alternating,
        check_equivalence_construct,
    )

    left = parse_qasm(left_qasm, name="G")
    right = parse_qasm(right_qasm, name="G'")
    package = job_package()
    if strategy == "construct":
        result = check_equivalence_construct(left, right, package=package)
    else:
        try:
            parsed = ApplicationStrategy(strategy)
        except ValueError:
            valid = ", ".join(
                ["construct"] + [s.value for s in ApplicationStrategy]
            )
            raise BadRequestError(
                f"unknown strategy {strategy!r} (expected one of: {valid})"
            )
        result = check_equivalence_alternating(
            left, right, strategy=parsed, package=package
        )
    return {
        "equivalent": result.equivalent,
        "equivalent_up_to_global_phase": result.equivalent_up_to_global_phase,
        "method": result.method,
        "peak_nodes": result.max_nodes,
    }


#: Job dispatch by name — the pipe carries names, not pickled callables.
_JOB_FUNCTIONS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "simulate": simulate_job,
    "verify": verify_job,
}


def _governance_report(package) -> Dict[str, Any]:
    """Post-job governance snapshot; collects if the budget shows pressure."""
    governor = package.governor
    if governor.pressure() is not PressureLevel.OK:
        governor.collect()
    return {
        "pressure": int(governor.pressure()),
        "table_bytes": governor.table_bytes(),
        "nodes": governor.node_count(),
        "gc_runs": governor.runs,
        "gc_nodes_reclaimed": governor.nodes_reclaimed_total,
        "gc_complex_reclaimed": governor.complex_reclaimed_total,
        "sanitize_runs": package.sanitize_runs,
        "sanitize_violations": package.sanitize_violations,
    }


def _run_job(
    fn: Callable[..., Dict[str, Any]], args: tuple, budget: MemoryBudget
) -> Tuple[Optional[Dict[str, Any]], Optional[BaseException], Optional[Dict[str, Any]]]:
    """Run one job on its own package; return ``(result, error, report)``.

    ``report`` is the governance report of the package the job asked
    :func:`job_package` for, or ``None`` if it used none.
    """
    _JOB.budget, _JOB.package = budget, None
    result = error = report = None
    try:
        result = fn(*args)
    except BaseException as caught:  # noqa: BLE001 - handed to the caller
        error = caught
    package, _JOB.budget, _JOB.package = _JOB.package, None, None
    if package is not None:
        try:
            report = _governance_report(package)
        except Exception:  # noqa: BLE001 - reporting must not mask the job's outcome
            pass
    return result, error, report


def _worker_main(conn, budget: MemoryBudget) -> None:  # pragma: no cover - child process
    """Worker loop: recv (job, args), run, send (status, payload, report)."""
    import os

    # Mark this process as a sacrificial worker child and (only when the
    # operator opted in) expose the chaos-testing fault jobs.
    os.environ["REPRO_WORKER_CHILD"] = "1"
    if os.environ.get("REPRO_ENABLE_FAULT_JOBS"):
        from repro.sanitizer.faults import install_service_faults

        install_service_faults()
    import repro.dd.package  # noqa: F401 - import before signalling readiness

    conn.send(("ready", None, None))
    while True:
        try:
            message = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        if message is None:
            break
        kind, args = message
        # Looked up inside the job so an unknown kind comes back as an error.
        result, error, report = _run_job(
            lambda *job_args: _JOB_FUNCTIONS[kind](*job_args), args, budget
        )
        if error is None:
            conn.send(("ok", result, report))
        else:
            conn.send(("err", (type(error).__name__, str(error)), report))
    conn.close()


def _rebuild_error(name: str, message: str) -> Exception:
    """Map a worker-side exception back onto the :mod:`repro.errors` tree."""
    cls = getattr(_errors, name, None)
    if isinstance(cls, type) and issubclass(cls, _errors.ReproError):
        try:
            return cls(message)
        except TypeError:  # pragma: no cover - exotic constructor signature
            pass
    return ServiceError(f"{name}: {message}")


class _Worker:
    """One supervised worker process and its duplex pipe."""

    def __init__(self, context, budget: MemoryBudget):
        self.conn, child_conn = multiprocessing.Pipe(duplex=True)
        self.process = context.Process(
            target=_worker_main,
            args=(child_conn, budget),
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def wait_ready(self, timeout: float = 30.0) -> None:
        if not self.conn.poll(timeout):  # pragma: no cover - slow machine
            raise ServiceError("worker failed to start in time")
        self.conn.recv()

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)


class _Shard:
    """One worker slot with a stable identity.

    The worker behind it may be killed and respawned, but the shard id
    (the ``shard`` label of its job counter) never changes.
    """

    __slots__ = ("index", "worker", "jobs")

    def __init__(self, index: int, jobs):
        self.index = index
        self.worker: Optional[_Worker] = None
        self.jobs = jobs


class WorkerPool:
    """A fixed pool of watchdog-supervised worker shards (or inline).

    ``request_deadline`` is the per-request wall-clock limit in seconds
    enforced by the watchdog; it must be positive.  ``budget_nodes`` /
    ``budget_bytes`` configure the :class:`~repro.dd.governance.MemoryBudget`
    of every job's package (0 disables a limit).
    """

    #: Seconds of load shedding after a job's package stays at HARD pressure.
    PRESSURE_COOLDOWN = 2.0

    def __init__(
        self,
        workers: int = 2,
        registry: Optional[MetricsRegistry] = None,
        request_deadline: float = 120.0,
        budget_nodes: int = 0,
        budget_bytes: int = 0,
        event_bus=None,
    ):
        self.workers = max(0, int(workers))
        if not request_deadline > 0:
            raise ServiceError(
                f"request_deadline must be positive, got {request_deadline!r}"
            )
        self.request_deadline = request_deadline
        self.budget = MemoryBudget(
            max_nodes=int(budget_nodes) or None,
            max_bytes=int(budget_bytes) or None,
        )
        self.event_bus = event_bus
        self._last_published_pressure = 0
        registry = registry if registry is not None else MetricsRegistry(enabled=False)
        self._registry = registry
        # Per-kind metrics are created lazily in `_job_metrics`: the job
        # table is open (chaos-testing fault jobs register extra kinds).
        self._m_jobs = {
            kind: registry.counter("service_jobs_total", {"kind": kind})
            for kind in ("simulate", "verify")
        }
        self._m_seconds = {
            kind: registry.histogram(
                "service_job_seconds", DEFAULT_TIME_BUCKETS, {"kind": kind}
            )
            for kind in ("simulate", "verify")
        }
        self._m_sanitize = registry.counter("dd_sanitize_violations_total")
        self._m_timeouts = registry.counter("service_job_timeouts_total")
        self._m_kills = registry.counter("service_watchdog_kills_total")
        self._m_shed = registry.counter("service_pressure_rejections_total")
        self._m_pressure = registry.gauge("service_worker_pressure")
        self._m_table_bytes = registry.gauge("dd_worker_table_bytes")
        self._m_gc_runs = registry.counter("dd_gc_runs_total")
        self._m_gc_nodes = registry.counter("dd_gc_nodes_reclaimed_total")
        # Totals over every job's report (each job starts from zero).
        self.gc_runs = 0
        self.gc_nodes_reclaimed = 0
        self.sanitize_violations_seen = 0
        self.watchdog_kills = 0
        self.last_report: Optional[Dict[str, Any]] = None
        self._reject_until = 0.0
        self._lock = threading.Lock()  # guards the report state above
        self._closed = False
        self._context = None
        # Inline mode has one pseudo-shard: the queue then serializes jobs
        # on the calling threads.
        self._shards: List[_Shard] = [
            _Shard(index, registry.counter(
                "service_shard_jobs_total", {"shard": str(index)}
            ))
            for index in range(max(1, self.workers))
        ]
        #: Idle shards; a job takes whichever becomes free first.
        self._free: "queue.SimpleQueue[_Shard]" = queue.SimpleQueue()
        if self.workers:
            # Prefer fork (cheap, instant start-up); the pool is created
            # before the server starts accepting, so no threads exist yet.
            methods = multiprocessing.get_all_start_methods()
            self._context = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            for shard in self._shards:
                shard.worker = self._spawn()
            for shard in self._shards:
                shard.worker.wait_ready()
        for shard in self._shards:
            self._free.put(shard)

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    def _spawn(self) -> _Worker:
        return _Worker(self._context, self.budget)

    def _respawn_shard(self, shard: _Shard, reason: str) -> None:
        """Kill a shard's worker and respawn in place (same shard id)."""
        if shard.worker is not None:
            shard.worker.kill()
        self.watchdog_kills += 1
        self._m_kills.inc()
        self._publish("worker.kill", {
            "reason": reason, "shard": shard.index,
            "kills_total": self.watchdog_kills,
        })
        if self._closed:
            shard.worker = None
            return
        replacement = self._spawn()
        try:
            replacement.wait_ready()
        except ServiceError:  # pragma: no cover - respawn failure
            replacement.kill()
            raise
        shard.worker = replacement

    def _publish(self, kind: str, data: Dict[str, Any]) -> None:
        if self.event_bus is not None:
            self.event_bus.publish(kind, data)

    def _absorb_report(self, report: Optional[Dict[str, Any]]) -> None:
        """Fold one job's governance report into the pool's state and totals."""
        if not report:
            return
        pressure = report["pressure"]
        violations = report["sanitize_violations"]
        with self._lock:
            self.last_report = report
            self._m_pressure.set(pressure)
            self._m_table_bytes.set(report["table_bytes"])
            self.gc_runs += report["gc_runs"]
            self.gc_nodes_reclaimed += report["gc_nodes_reclaimed"]
            self._m_gc_runs.inc(report["gc_runs"])
            self._m_gc_nodes.inc(report["gc_nodes_reclaimed"])
            if pressure != self._last_published_pressure:
                self._publish("pool.pressure", {
                    "level": pressure,
                    "previous": self._last_published_pressure,
                    "table_bytes": report["table_bytes"],
                    "nodes": report["nodes"],
                })
                self._last_published_pressure = pressure
            if violations:
                # Sticky by design: detected table corruption is not
                # something a later clean job un-detects.  `/healthz`
                # degrades until the operator restarts the service.
                self.sanitize_violations_seen += violations
                self._m_sanitize.inc(violations)
                self._publish("pool.sanitize", {
                    "violations_total": self.sanitize_violations_seen,
                    "sticky": True,
                })
            if pressure >= int(PressureLevel.HARD):
                # The job's package is still over budget *after* collecting:
                # its live data alone exceeds the budget.  Shed load briefly
                # so clients back off instead of piling on more work.
                self._reject_until = time.monotonic() + self.PRESSURE_COOLDOWN

    def _check_pressure_gate(self) -> None:
        with self._lock:
            remaining = self._reject_until - time.monotonic()
        if remaining > 0:
            self._m_shed.inc()
            self._publish("pool.shed", {"retry_after": max(0.1, round(remaining, 1))})
            raise TablePressureError(
                "worker decision-diagram tables are at their memory budget; "
                "retry shortly",
                retry_after=max(0.1, round(remaining, 1)),
            )

    @property
    def pressure_level(self) -> int:
        """Post-GC pressure of the last job's package (0 = OK)."""
        report = self.last_report
        return int(report.get("pressure", 0)) if report else 0

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self, kind: str, fn: Callable[..., Dict[str, Any]], *args
    ) -> Dict[str, Any]:
        """Run ``fn(*args)`` on the first free shard and block for the result.

        The job runs on a fresh package of its own (see :func:`job_package`).
        Raises :class:`JobTimeoutError` if the request deadline elapses
        (the runaway worker is killed and replaced in place) and
        :class:`TablePressureError` while the pool is shedding load.
        """
        if self._closed:
            raise ServiceError("the worker pool is closed")
        self._check_pressure_gate()
        start = perf_counter()
        shard = self._free.get()
        try:
            if self._closed:
                raise ServiceError("the worker pool is closed")
            shard.jobs.inc()
            if self.workers:
                return self._run_on_shard(shard, kind, args)
            result, error, report = _run_job(fn, args, self.budget)
            self._absorb_report(report)
            if error is not None:
                raise error
            return result
        finally:
            self._free.put(shard)
            counter, histogram = self._job_metrics(kind)
            counter.inc()
            histogram.observe(perf_counter() - start)

    def _job_metrics(self, kind: str):
        if kind not in self._m_jobs:
            self._m_jobs[kind] = self._registry.counter(
                "service_jobs_total", {"kind": kind}
            )
            self._m_seconds[kind] = self._registry.histogram(
                "service_job_seconds", DEFAULT_TIME_BUCKETS, {"kind": kind}
            )
        return self._m_jobs[kind], self._m_seconds[kind]

    def _run_on_shard(self, shard: _Shard, kind: str, args: tuple) -> Dict[str, Any]:
        """Run one job on a checked-out shard, supervising with the watchdog."""
        worker = shard.worker
        try:
            worker.conn.send((kind, args))
        except (BrokenPipeError, OSError):
            self._respawn_shard(shard, "send failed")
            raise ServiceUnavailableError("worker was unavailable; please retry")
        deadline = time.monotonic() + self.request_deadline
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._m_timeouts.inc()
                self._respawn_shard(shard, "deadline overrun")
                raise JobTimeoutError(
                    f"{kind} job exceeded the {self.request_deadline:.0f}s "
                    "request deadline (worker was killed and replaced)"
                )
            try:
                if not worker.conn.poll(min(remaining, 0.2)):
                    continue
                status, payload, report = worker.conn.recv()
            except (EOFError, OSError):
                self._respawn_shard(shard, "worker died")
                raise ServiceUnavailableError(
                    f"worker died while running a {kind} job; it has been "
                    "replaced — please retry"
                )
            break
        self._absorb_report(report)
        if status == "err":
            name, message = payload
            raise _rebuild_error(name, message)
        return payload

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop accepting jobs and reap the worker shards."""
        if self._closed:
            return
        self._closed = True
        if not self.workers:
            return
        # Best-effort polite stop of the shards that come free within the
        # grace period; shards still mid-job are killed.
        idle: List[_Shard] = []
        grace_end = time.monotonic() + 2.0
        while len(idle) < len(self._shards):
            try:
                idle.append(self._free.get(
                    timeout=max(0.0, grace_end - time.monotonic())
                ))
            except queue.Empty:
                break
        for shard in self._shards:
            worker, shard.worker = shard.worker, None
            if worker is None:
                continue
            if shard in idle:
                try:
                    worker.conn.send(None)
                    worker.process.join(timeout=2.0)
                except (BrokenPipeError, OSError):
                    pass
            worker.kill()
        for shard in idle:  # wakes blocked submitters, which see `_closed`
            self._free.put(shard)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
