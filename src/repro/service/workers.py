"""Watchdog-supervised worker shards for one-shot simulate/verify jobs.

:class:`DDPackage` instances are not thread-safe, and a busy batch endpoint
must not serialize all clients behind one package.  The pool therefore runs
jobs in dedicated worker *processes*, each owning exactly one long-lived,
memory-governed package that is reused across jobs.

Workers are **shards with stable identities** on a consistent-hash ring:
``submit(..., shard_key=digest)`` routes every job for the same circuit
digest to the same worker, so repeated circuits hit that shard's warm
unique/compute/apply tables instead of rebuilding them elsewhere.  Keyless
jobs take any free shard (round-robin).  A killed worker is respawned *in
place* under the same shard id — its warm tables are lost, but the ring
(and therefore every other key's placement) is unchanged.  Placement is
observable: ``service_shard_jobs_total{shard=...,affinity=...}`` counts
jobs per shard, and :attr:`WorkerPool.shard_jobs` snapshots the counters
for tests.

Unlike a ``multiprocessing.Pool`` (whose ``get(timeout)`` abandons the
result but leaves the worker churning on the stuck job forever), every
worker here is supervised by a *request watchdog*: the parent waits on the
worker's pipe with a per-request wall-clock deadline and, on overrun,
**kills** the worker process and respawns a fresh one — the runaway
computation is actually stopped, not merely ignored.  Kills are counted in
``service_watchdog_kills_total``.

Workers also participate in memory governance: after every job the worker
runs its package's garbage collector if the configured
:class:`~repro.dd.governance.MemoryBudget` shows pressure, and reports the
post-GC pressure back alongside the result.  If a worker remains at HARD
pressure even after collecting (live data alone exceeds the budget), the
pool sheds load for a cooldown period: ``submit`` raises
:class:`~repro.errors.TablePressureError`, which the HTTP layer maps to
``503`` with a ``Retry-After`` header — bounded memory instead of
fast-until-OOM.

Job functions are module-level so they pickle, take only plain-data
arguments (QASM text, ints, strings) and return plain dicts — the JSON the
endpoint will serve.

``workers=0`` selects *inline* mode: jobs run in the calling thread behind
a lock.  That keeps unit tests and single-user deployments free of
subprocess machinery while exercising the exact same job functions (the
watchdog cannot kill the calling thread, so deadlines are not enforced
inline; pressure shedding still works).
"""

from __future__ import annotations

import bisect
import hashlib
import multiprocessing
import multiprocessing.connection
import threading
import time
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import errors as _errors
from repro.errors import (
    BadRequestError,
    JobTimeoutError,
    ServiceError,
    ServiceUnavailableError,
    TablePressureError,
)
from repro.obs.metrics import DEFAULT_TIME_BUCKETS, MetricsRegistry

__all__ = ["WorkerPool", "simulate_job", "verify_job"]

#: The per-process decision-diagram package (one per worker, reused).
_WORKER_PACKAGE = None
#: Budget applied to worker packages, set by the worker bootstrap.
_WORKER_BUDGET: Tuple[int, int] = (0, 0)  # (max_nodes, max_bytes); 0 = off


def _package():
    global _WORKER_PACKAGE
    if _WORKER_PACKAGE is None:
        from repro.dd.governance import MemoryBudget
        from repro.dd.package import DDPackage
        from repro.obs.metrics import MetricsRegistry as _Registry

        max_nodes, max_bytes = _WORKER_BUDGET
        budget = MemoryBudget(
            max_nodes=max_nodes or None,
            max_bytes=max_bytes or None,
        )
        # Workers keep their own dark registry: service-level metrics are
        # recorded in the parent, and a disabled registry keeps the
        # simulation hot path free of instrumentation cost.
        _WORKER_PACKAGE = DDPackage(
            registry=_Registry(enabled=False), budget=budget
        )
    return _WORKER_PACKAGE


def _set_budget(max_nodes: int, max_bytes: int) -> None:
    global _WORKER_BUDGET
    _WORKER_BUDGET = (int(max_nodes), int(max_bytes))


def _reset_package() -> None:
    """Drop the process-wide package so the next job rebuilds it.

    Needed when an *inline* pool (workers=0) configures a budget after a
    previous pool in the same process already built an unbudgeted package.
    """
    global _WORKER_PACKAGE
    _WORKER_PACKAGE = None


def simulate_job(qasm: str, shots: int = 0, seed: Optional[int] = 0) -> Dict[str, Any]:
    """Parse, simulate to the end, optionally sample; return a JSON dict."""
    from repro.dd import sampling
    from repro.qc.qasm.parser import parse_qasm
    from repro.simulation.simulator import DDSimulator

    circuit = parse_qasm(qasm)
    package = _package()
    simulator = None
    try:
        simulator = DDSimulator(circuit, package=package, seed=seed)
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
        if simulator is not None:
            simulator.close()  # release the history's governor roots
        package.clear_caches()


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
    package = _package()
    try:
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
    finally:
        package.clear_caches()


#: Job dispatch by name — the pipe carries names, not pickled callables.
_JOB_FUNCTIONS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "simulate": simulate_job,
    "verify": verify_job,
}


def register_job(kind: str, fn: Callable[..., Dict[str, Any]]) -> None:
    """Add (or replace) a named job in the dispatch table.

    Registration in the parent covers inline pools and fork-started
    workers; spawn-started workers re-register in their own bootstrap
    (see ``_worker_main``), so callers register at both ends.
    """
    _JOB_FUNCTIONS[kind] = fn


def _governance_report() -> Dict[str, Any]:
    """Post-job governance snapshot; collects if the budget shows pressure."""
    from repro.dd.governance import PressureLevel

    package = _package()
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


def _worker_main(conn, max_nodes: int, max_bytes: int) -> None:  # pragma: no cover - child process
    """Worker loop: recv (job, args), run, send (status, payload, report)."""
    import os

    # Mark this process as a sacrificial worker child and (only when the
    # operator opted in) expose the chaos-testing fault jobs.
    os.environ["REPRO_WORKER_CHILD"] = "1"
    if os.environ.get("REPRO_ENABLE_FAULT_JOBS"):
        from repro.sanitizer.faults import install_service_faults

        install_service_faults()
    # Campaign cells are a first-class job kind: install unconditionally so
    # spawn-started children (which do not inherit parent registrations)
    # can serve `qdd-tool campaign` work.
    from repro.campaign.jobs import install_campaign_jobs

    install_campaign_jobs()
    _set_budget(max_nodes, max_bytes)
    _package()  # warm up before signalling readiness
    conn.send(("ready", None, None))
    while True:
        try:
            message = conn.recv()
        except (EOFError, KeyboardInterrupt):
            break
        if message is None:
            break
        job, args = message
        try:
            result = _JOB_FUNCTIONS[job](*args)
            conn.send(("ok", result, _governance_report()))
        except BaseException as error:  # noqa: BLE001 - marshalled to parent
            try:
                report = _governance_report()
            except Exception:  # noqa: BLE001 - reporting must not mask the job error
                report = None
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

    def __init__(self, context, max_nodes: int, max_bytes: int):
        self.conn, child_conn = multiprocessing.Pipe(duplex=True)
        self.process = context.Process(
            target=_worker_main,
            args=(child_conn, max_nodes, max_bytes),
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
    """One worker slot with a stable identity on the consistent-hash ring.

    The lock serializes jobs onto the shard's single worker process; the
    worker behind it may be killed and respawned, but the shard id (and
    with it every key's ring placement) never changes.
    """

    __slots__ = ("index", "worker", "lock", "jobs_total", "keyed_jobs")

    def __init__(self, index: int, worker: Optional[_Worker]):
        self.index = index
        self.worker = worker
        self.lock = threading.Lock()
        self.jobs_total = 0
        self.keyed_jobs = 0


#: Virtual points per shard on the consistent-hash ring.  More points
#: smooth the key distribution across shards; 64 keeps the ring tiny.
_RING_REPLICAS = 64


def _hash_point(data: str) -> int:
    return int.from_bytes(
        hashlib.sha256(data.encode("utf-8")).digest()[:8], "big"
    )


def _build_ring(shard_count: int) -> List[Tuple[int, int]]:
    """``[(point, shard_index), ...]`` sorted by point."""
    ring = [
        (_hash_point(f"shard-{shard}:{replica}"), shard)
        for shard in range(shard_count)
        for replica in range(_RING_REPLICAS)
    ]
    ring.sort()
    return ring


class WorkerPool:
    """A fixed pool of watchdog-supervised worker shards (or inline).

    ``request_deadline`` is the per-request wall-clock limit enforced by
    the watchdog (0 falls back to ``job_timeout``).  ``budget_nodes`` /
    ``budget_bytes`` configure each worker package's
    :class:`~repro.dd.governance.MemoryBudget` (0 disables a limit).
    """

    #: Seconds of load shedding after a worker stays at HARD pressure.
    PRESSURE_COOLDOWN = 2.0

    def __init__(
        self,
        workers: int = 2,
        job_timeout: float = 120.0,
        registry: Optional[MetricsRegistry] = None,
        request_deadline: float = 0.0,
        budget_nodes: int = 0,
        budget_bytes: int = 0,
        event_bus=None,
    ):
        self.workers = max(0, int(workers))
        self.job_timeout = job_timeout
        self.request_deadline = request_deadline if request_deadline > 0 else job_timeout
        self.budget_nodes = int(budget_nodes)
        self.budget_bytes = int(budget_bytes)
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
        self.sanitize_violations_seen = 0
        self._m_timeouts = registry.counter("service_job_timeouts_total")
        self._m_kills = registry.counter("service_watchdog_kills_total")
        self._m_shed = registry.counter("service_pressure_rejections_total")
        self._m_pressure = registry.gauge("service_worker_pressure")
        self._m_table_bytes = registry.gauge("dd_worker_table_bytes")
        self._m_gc_runs = registry.counter("dd_gc_runs_total")
        self._m_gc_nodes = registry.counter("dd_gc_nodes_reclaimed_total")
        self._inline_lock = threading.Lock()
        self.watchdog_kills = 0
        self.last_report: Optional[Dict[str, Any]] = None
        self._reject_until = 0.0
        self._reject_lock = threading.Lock()
        self._closed = False
        self._context = None
        self._rr = 0  # round-robin cursor for keyless jobs
        self._rr_lock = threading.Lock()
        # One pseudo-shard in inline mode keeps the affinity counters and
        # the consistent-hash ring meaningful even without processes.
        self._shards: List[_Shard] = [
            _Shard(index, None) for index in range(max(1, self.workers))
        ]
        self._ring = _build_ring(len(self._shards))
        if not self.workers and (self.budget_nodes or self.budget_bytes):
            # Inline jobs share this process's package: install the budget
            # and rebuild so it actually takes effect.
            _set_budget(self.budget_nodes, self.budget_bytes)
            _reset_package()
        if self.workers:
            # Prefer fork (cheap, instant warm-up); the pool is created
            # before the server starts accepting, so no threads exist yet.
            methods = multiprocessing.get_all_start_methods()
            self._context = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            for shard in self._shards:
                shard.worker = self._spawn()
            for shard in self._shards:
                shard.worker.wait_ready()

    # ------------------------------------------------------------------
    # shard routing
    # ------------------------------------------------------------------
    def shard_for(self, shard_key: str) -> int:
        """The shard index a key lands on (consistent hashing)."""
        point = _hash_point(str(shard_key))
        index = bisect.bisect_right(self._ring, (point, len(self._shards)))
        return self._ring[index % len(self._ring)][1]

    @property
    def shard_jobs(self) -> List[Dict[str, int]]:
        """Per-shard job counters, for tests and the benchmarks."""
        return [
            {"shard": shard.index, "jobs_total": shard.jobs_total,
             "keyed_jobs": shard.keyed_jobs}
            for shard in self._shards
        ]

    def _count_shard_job(self, shard: _Shard, keyed: bool) -> None:
        shard.jobs_total += 1
        if keyed:
            shard.keyed_jobs += 1
        self._registry.counter(
            "service_shard_jobs_total",
            {"shard": str(shard.index), "affinity": "keyed" if keyed else "any"},
        ).inc()

    def _acquire_any(self) -> _Shard:
        """Lock a free shard, preferring round-robin order; block if none."""
        with self._rr_lock:
            start = self._rr
            self._rr = (self._rr + 1) % len(self._shards)
        for offset in range(len(self._shards)):
            shard = self._shards[(start + offset) % len(self._shards)]
            if shard.lock.acquire(blocking=False):
                return shard
        shard = self._shards[start]
        shard.lock.acquire()
        return shard

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    def _spawn(self) -> _Worker:
        return _Worker(self._context, self.budget_nodes, self.budget_bytes)

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
        """Fold a worker's post-job governance report into pool state."""
        if not report:
            return
        from repro.dd.governance import PressureLevel

        self.last_report = report
        pressure = int(report.get("pressure", 0) or 0)
        self._m_pressure.set(pressure)
        self._m_table_bytes.set(report.get("table_bytes", 0))
        self._m_gc_runs.set_value(report.get("gc_runs", 0))
        self._m_gc_nodes.set_value(report.get("gc_nodes_reclaimed", 0))
        if pressure != self._last_published_pressure:
            self._publish("pool.pressure", {
                "level": pressure,
                "previous": self._last_published_pressure,
                "table_bytes": report.get("table_bytes", 0),
                "nodes": report.get("nodes", 0),
            })
            self._last_published_pressure = pressure
        violations = int(report.get("sanitize_violations", 0) or 0)
        if violations > self.sanitize_violations_seen:
            # Sticky by design: detected table corruption is not something
            # a later clean job un-detects.  `/healthz` degrades until the
            # operator restarts (or replaces) the service.
            self.sanitize_violations_seen = violations
            self._m_sanitize.set_value(violations)
            self._publish("pool.sanitize", {
                "violations_total": violations, "sticky": True,
            })
        if pressure >= int(PressureLevel.HARD):
            # The worker is still over budget *after* collecting: its live
            # data alone exceeds the budget.  Shed load briefly so clients
            # back off instead of piling more work onto a saturated table.
            with self._reject_lock:
                self._reject_until = time.monotonic() + self.PRESSURE_COOLDOWN

    def _check_pressure_gate(self) -> None:
        with self._reject_lock:
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
        """Last reported post-GC worker pressure (0 = OK)."""
        report = self.last_report
        return int(report.get("pressure", 0)) if report else 0

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        fn: Callable[..., Dict[str, Any]],
        *args,
        shard_key: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Run ``fn(*args)`` on a worker shard and block for the result.

        With ``shard_key`` the job is routed by consistent hashing, so
        repeated submissions of the same key (e.g. a circuit digest) hit
        the same shard's warm compute/apply tables; without it, any free
        shard takes the job.  Raises :class:`JobTimeoutError` if the
        request deadline elapses (the runaway worker is killed and
        replaced in place) and :class:`TablePressureError` while the pool
        is shedding load.
        """
        if self._closed:
            raise ServiceError("the worker pool is closed")
        self._check_pressure_gate()
        start = perf_counter()
        try:
            if not self.workers:
                with self._inline_lock:
                    self._count_shard_job(self._shards[0], shard_key is not None)
                    try:
                        return fn(*args)
                    finally:
                        self._absorb_report(_governance_report())
            if shard_key is not None:
                shard = self._shards[self.shard_for(shard_key)]
                shard.lock.acquire()
                keyed = True
            else:
                shard = self._acquire_any()
                keyed = False
            try:
                self._count_shard_job(shard, keyed)
                return self._run_on_shard(shard, kind, args)
            finally:
                shard.lock.release()
        finally:
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
        """Run one job on a locked shard, supervising with the watchdog."""
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
        for shard in self._shards:
            worker = shard.worker
            if worker is None:
                continue
            # Best-effort polite stop; a shard still mid-job is killed.
            acquired = shard.lock.acquire(timeout=2.0)
            try:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
                worker.process.join(timeout=2.0)
                worker.kill()
                shard.worker = None
            finally:
                if acquired:
                    shard.lock.release()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
