"""The service application: routing, handlers, metrics, error mapping.

This module is deliberately transport-free: :class:`ServiceApp` maps a
plain :class:`Request` value to a :class:`Response` value, so the whole API
is unit-testable without opening a socket.  ``eventloop.py`` serves it
over HTTP; a WSGI/ASGI adapter would be a dozen lines.

Routes (all JSON unless noted):

====== =============================== =====================================
POST   ``/sessions``                   open a simulation/verification session
GET    ``/sessions``                   list live sessions
GET    ``/sessions/{id}``              session status (incl. pending dialog)
DELETE ``/sessions/{id}``              close a session
POST   ``/sessions/{id}/step``         navigate (forward/backward/…)
GET    ``/sessions/{id}/svg``          current DD as SVG (image/svg+xml)
GET    ``/sessions/{id}/text``         current DD as terminal art (text/plain)
GET    ``/sessions/{id}/counts``       sampled shot histogram
POST   ``/simulate``                   one-shot batch simulation (cached)
POST   ``/simulate/batch``             array of jobs, NDJSON streamed as done
POST   ``/verify``                     one-shot equivalence check (cached)
GET    ``/sessions/{id}/stream``       live step frames (text/event-stream)
GET    ``/stream/metrics``             metric deltas + state (text/event-stream)
GET    ``/dashboard``                  self-contained live dashboard (HTML)
GET    ``/metrics``                    Prometheus text exposition
GET    ``/report``                     human-readable run report (text/plain)
GET    ``/healthz``                    liveness probe
====== =============================== =====================================

Streaming endpoints return a :class:`StreamingResponse` — a lazily
produced sequence of Server-Sent-Event chunks — instead of a buffered
:class:`Response`; the HTTP adapter writes them with chunked transfer
encoding, and the whole SSE machinery stays unit-testable by iterating
the chunks directly.

Error responses are structured and reuse the :mod:`repro.errors` hierarchy:
``{"error": {"type": "ParseError", "message": "...", "status": 400}}``.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.errors import (
    BadRequestError,
    CircuitTooLargeError,
    JobTimeoutError,
    NotFoundError,
    RateLimitedError,
    ReproError,
    RequestTooLargeError,
    SanitizerError,
    ServiceError,
    ServiceUnavailableError,
    SessionLimitError,
    SimulationError,
    VerificationError,
)
from repro.obs.events import EventBus, Subscription
from repro.obs.export import registry_snapshot, run_report, snapshot_delta, to_prometheus
from repro.obs.metrics import DEFAULT_TIME_BUCKETS, MetricsRegistry
from repro.qc.qasm.parser import parse_qasm
from repro.service.cache import ResultCache
from repro.service.sessions import SessionHandle, SessionStore
from repro.service.workers import WorkerPool, depth_limited, simulate_job, verify_job
from repro.tool.session import SimulationSession, VerificationSession
from repro.vis.style import DDStyle

__all__ = ["Request", "Response", "ServiceApp", "ServiceConfig", "StreamingResponse"]

_JSON = "application/json"

#: Largest ``shots`` one request may ask for: sampling time is linear in
#: shots, and session counts are sampled inside a handler thread.
MAX_SHOTS = 1_000_000

_STATUS_BY_ERROR: Tuple[Tuple[type, int], ...] = (
    (NotFoundError, 404),
    (SessionLimitError, 503),
    (ServiceUnavailableError, 503),  # includes TablePressureError
    (RequestTooLargeError, 413),
    (CircuitTooLargeError, 413),
    (RateLimitedError, 429),
    (JobTimeoutError, 504),
    (BadRequestError, 400),
    (SimulationError, 409),
    (VerificationError, 409),
    # Detected DD-table corruption: the request cannot be served safely,
    # but the condition is server-side — 503, not a client error.
    (SanitizerError, 503),
    (ServiceError, 400),
    (ReproError, 400),
)


@dataclass
class ServiceConfig:
    """Tunables of one service instance (see ``qdd-tool serve --help``)."""

    host: str = "127.0.0.1"
    port: int = 8137
    #: Handler threads behind the event loop (0 = sized from ``workers``).
    handler_threads: int = 0
    workers: int = 2
    max_sessions: int = 64
    session_ttl: float = 600.0
    cache_capacity: int = 256
    max_body_bytes: int = 1 << 20
    rate_limit: float = 0.0  # requests/second; 0 disables the limiter
    rate_burst: int = 32
    drain_timeout: float = 10.0
    #: Per-request wall-clock deadline in seconds, enforced by the worker
    #: watchdog (an overrunning worker is killed and respawned: 504).
    request_deadline: float = 120.0
    #: Per-job package memory budget: max unique-table nodes (0 = no limit).
    budget_nodes: int = 0
    #: Per-job package memory budget: max estimated table bytes (0 = no limit).
    budget_bytes: int = 0
    #: Per-subscriber SSE queue depth; a slow consumer beyond it loses the
    #: *oldest* queued events (counted in ``dd_stream_dropped_total``).
    stream_queue: int = 256
    #: Hard cap on concurrently open SSE connections (503 beyond it).
    max_streams: int = 64
    #: Events kept per bus for ``Last-Event-ID`` replay after reconnects.
    stream_history: int = 1024
    #: Seconds of stream silence before a ``: heartbeat`` comment is sent.
    heartbeat_interval: float = 10.0
    #: Seconds between metric-delta emissions on ``/stream/metrics``.
    metrics_interval: float = 2.0
    #: Largest accepted ``/simulate/batch`` job array.
    batch_max_jobs: int = 256


@dataclass
class Request:
    """A transport-independent request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    client: str = ""
    #: Request headers with lower-cased names (``last-event-id`` is the
    #: only one the app reads; transports may omit the rest).
    headers: Dict[str, str] = field(default_factory=dict)


@dataclass
class Response:
    status: int
    content_type: str
    body: bytes
    #: extra HTTP headers (e.g. ``Retry-After`` on 503), emitted verbatim
    headers: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(
        cls,
        payload: Any,
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> "Response":
        return cls(
            status,
            _JSON,
            (json.dumps(payload, indent=2) + "\n").encode(),
            headers=headers or {},
        )

    @classmethod
    def text(cls, text: str, status: int = 200, content_type: str = "text/plain") -> "Response":
        return cls(status, f"{content_type}; charset=utf-8", text.encode())


def _sse_chunk(kind: str, data: Any) -> bytes:
    """One anonymous (id-less) SSE event — snapshots, deltas, shutdown.

    Bus events carry their own ids via :meth:`Event.to_sse`; per-connection
    synthetic events must *not*, or a reconnecting client's
    ``Last-Event-ID`` would point at an id the bus never issued.
    """
    return (
        f"event: {kind}\ndata: {json.dumps(data, separators=(',', ':'))}\n\n"
    ).encode()


@dataclass
class StreamingResponse:
    """A response whose body is produced lazily, chunk by chunk.

    The HTTP adapter writes each chunk with chunked transfer encoding and
    calls :meth:`close` when the stream ends (normally or because the
    client vanished); ``close`` is idempotent and safe to call even if the
    chunk iterator was never started.
    """

    status: int
    content_type: str
    chunks: Iterator[bytes]
    headers: Dict[str, str] = field(default_factory=dict)
    on_close: Optional[Callable[[], None]] = None

    def close(self) -> None:
        callback, self.on_close = self.on_close, None
        if callback is not None:
            callback()


class _RateLimiter:
    """A token bucket shared by all clients (coarse overload protection)."""

    def __init__(self, rate: float, burst: int):
        self.rate = rate
        self.burst = max(1, burst)
        self._tokens = float(self.burst)
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    def admit(self) -> bool:
        with self._lock:
            now = time.monotonic()
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate
            )
            self._stamp = now
            if self._tokens < 1.0:
                return False
            self._tokens -= 1.0
            return True


class ServiceApp:
    """Routes requests to handlers; owns store, cache, pool and metrics."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.config = config if config is not None else ServiceConfig()
        self.registry = registry if registry is not None else MetricsRegistry(enabled=True)
        #: App-level bus: session lifecycle, pool pressure/watchdog and
        #: sanitizer transitions — what ``/stream/metrics`` forwards live.
        self.events = EventBus(
            registry=self.registry,
            history=self.config.stream_history,
            max_queue=self.config.stream_queue,
        )
        self.store = SessionStore(
            max_sessions=self.config.max_sessions,
            ttl=self.config.session_ttl,
            registry=self.registry,
            event_bus=self.events,
            stream_history=self.config.stream_history,
        )
        self.cache = ResultCache(
            capacity=self.config.cache_capacity, registry=self.registry
        )
        self.pool = WorkerPool(
            workers=self.config.workers,
            registry=self.registry,
            request_deadline=self.config.request_deadline,
            budget_nodes=self.config.budget_nodes,
            budget_bytes=self.config.budget_bytes,
            event_bus=self.events,
        )
        self._limiter = (
            _RateLimiter(self.config.rate_limit, self.config.rate_burst)
            if self.config.rate_limit > 0
            else None
        )
        self._started = time.time()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._m_inflight = self.registry.gauge("service_inflight_requests")
        self._streams = 0
        self._streams_lock = threading.Lock()
        self._m_streams = self.registry.gauge("service_streams_open")
        self._shutting_down = threading.Event()
        # (endpoint, method, status) counters are created on demand; the
        # latency histograms per endpoint too.  Touch the cache counters so
        # they are visible at /metrics from the first scrape.
        self.cache.get(("__warm__",))

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def handle(self, request: Request) -> Response:
        start = perf_counter()
        with self._inflight_lock:
            self._inflight += 1
            self._m_inflight.set(self._inflight)
        endpoint = "unmatched"
        try:
            handler, endpoint, session_id = self._route(request.method, request.path)
            # Probes, scrapes and operator views stay reachable under
            # overload — they are how an operator *sees* the overload.
            if self._limiter is not None and endpoint not in (
                "/healthz", "/metrics", "/report"
            ):
                if not self._limiter.admit():
                    raise RateLimitedError("request rate limit exceeded")
            if len(request.body) > self.config.max_body_bytes:
                raise RequestTooLargeError(
                    f"request body of {len(request.body)} bytes exceeds the "
                    f"{self.config.max_body_bytes}-byte limit"
                )
            response = handler(request, session_id)
        except ReproError as error:
            response = self._error_response(error)
        except Exception as error:  # noqa: BLE001 - last-resort 500
            response = Response.json(
                {"error": {"type": type(error).__name__,
                           "message": str(error), "status": 500}},
                status=500,
            )
        finally:
            with self._inflight_lock:
                self._inflight -= 1
                self._m_inflight.set(self._inflight)
        self.registry.counter(
            "service_requests_total",
            {"endpoint": endpoint, "method": request.method,
             "status": str(response.status)},
        ).inc()
        self.registry.histogram(
            "service_request_seconds", DEFAULT_TIME_BUCKETS,
            {"endpoint": endpoint},
        ).observe(perf_counter() - start)
        return response

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    @property
    def active_streams(self) -> int:
        """How many SSE connections are currently open."""
        with self._streams_lock:
            return self._streams

    def begin_shutdown(self) -> None:
        """Wake every open SSE stream so connections can drain.

        Publishes a final ``service.shutdown`` event, then closes the
        app-level bus and every session's frame bus: blocked subscribers
        wake, the stream generators emit their shutdown notice and end,
        and :meth:`active_streams` falls to zero.  Idempotent.
        """
        if self._shutting_down.is_set():
            return
        self._shutting_down.set()
        self.events.publish("service.shutdown", {"reason": "sigterm"})
        self.events.close()
        self.store.close_streams()

    def close(self) -> None:
        self.begin_shutdown()
        self.pool.close()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _route(
        self, method: str, path: str
    ) -> Tuple[Callable[[Request, Optional[str]], Response], str, Optional[str]]:
        if method == "HEAD":
            # HEAD answers with GET's headers and no body (the transports
            # suppress the body); load balancers probe /healthz this way.
            try:
                return self._route("GET", path)
            except NotFoundError:
                raise NotFoundError(f"no route for HEAD {path}")
        parts = [part for part in path.split("/") if part]
        flat = {
            ("GET", "healthz"): (self._get_healthz, "/healthz"),
            ("GET", "metrics"): (self._get_metrics, "/metrics"),
            ("GET", "report"): (self._get_report, "/report"),
            ("GET", "dashboard"): (self._get_dashboard, "/dashboard"),
            ("POST", "sessions"): (self._post_sessions, "/sessions"),
            ("GET", "sessions"): (self._get_sessions, "/sessions"),
            ("POST", "simulate"): (self._post_simulate, "/simulate"),
            ("POST", "verify"): (self._post_verify, "/verify"),
        }
        if len(parts) == 1:
            entry = flat.get((method, parts[0]))
            if entry:
                return entry[0], entry[1], None
        if len(parts) == 2 and parts[0] == "stream" and parts[1] == "metrics":
            if method == "GET":
                return self._get_metrics_stream, "/stream/metrics", None
        if len(parts) == 2 and parts[0] == "simulate" and parts[1] == "batch":
            if method == "POST":
                return self._post_simulate_batch, "/simulate/batch", None
        if len(parts) == 2 and parts[0] == "sessions":
            if method == "GET":
                return self._get_session, "/sessions/{id}", parts[1]
            if method == "DELETE":
                return self._delete_session, "/sessions/{id}", parts[1]
        if len(parts) == 3 and parts[0] == "sessions":
            sub = {
                ("POST", "step"): (self._post_step, "/sessions/{id}/step"),
                ("GET", "svg"): (self._get_svg, "/sessions/{id}/svg"),
                ("GET", "text"): (self._get_text, "/sessions/{id}/text"),
                ("GET", "counts"): (self._get_counts, "/sessions/{id}/counts"),
                ("GET", "stream"): (self._get_session_stream, "/sessions/{id}/stream"),
            }
            entry = sub.get((method, parts[2]))
            if entry:
                return entry[0], entry[1], parts[1]
        raise NotFoundError(f"no route for {method} {path}")

    # ------------------------------------------------------------------
    # request parsing helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _json_body(request: Request) -> Dict[str, Any]:
        if not request.body:
            return {}
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise BadRequestError(f"request body is not valid JSON: {error}")
        if not isinstance(payload, dict):
            raise BadRequestError("request body must be a JSON object")
        return payload

    @staticmethod
    def _require(payload: Dict[str, Any], key: str) -> str:
        if key not in payload:
            raise BadRequestError(f"missing required field {key!r}")
        value = payload[key]
        if not isinstance(value, str):
            raise BadRequestError(f"field {key!r} must be a string")
        return value

    @staticmethod
    def _int_field(value: Any, name: str, default: int = 0) -> int:
        if value is None:
            return default
        try:
            return int(value)
        except (TypeError, ValueError):
            raise BadRequestError(f"field {name!r} must be an integer")

    def _error_response(self, error: ReproError) -> Response:
        status = 400
        for cls, code in _STATUS_BY_ERROR:
            if isinstance(error, cls):
                status = code
                break
        headers = {}
        retry_after = getattr(error, "retry_after", None)
        if retry_after is not None:
            # RFC 7231 allows only integer seconds; round up so a client
            # honouring the header never retries before the window closes.
            headers["Retry-After"] = str(max(1, int(retry_after + 0.999)))
        return Response.json(
            {"error": {"type": type(error).__name__,
                       "message": str(error), "status": status}},
            status=status,
            headers=headers,
        )

    # ------------------------------------------------------------------
    # infrastructure endpoints
    # ------------------------------------------------------------------
    def _get_healthz(self, request: Request, _sid: Optional[str]) -> Response:
        report = self.pool.last_report or {}
        pressure = self.pool.pressure_level
        sanitize_violations = self.pool.sanitize_violations_seen
        # Degraded (not down) while job packages sit at their memory budget
        # or a sanitizer run detected table corruption: the process still
        # serves, it just sheds batch load / warns the operator.
        healthy = pressure < 2 and sanitize_violations == 0
        # Load balancers act on the status code, not the body: a degraded
        # instance answers 503 so traffic drains away from it.
        return Response.json(status=200 if healthy else 503, payload={
            "status": "ok" if healthy else "degraded",
            # A fixed start time, not an uptime: the body (and with it the
            # Content-Length a HEAD advertises) only changes with state.
            "started_at": round(self._started, 3),
            "sessions": len(self.store),
            "workers": self.pool.workers,
            "governance": {
                "pressure": pressure,
                "table_bytes": report.get("table_bytes", 0),
                "nodes": report.get("nodes", 0),
                "gc_runs": self.pool.gc_runs,
                "gc_nodes_reclaimed": self.pool.gc_nodes_reclaimed,
                "watchdog_kills": self.pool.watchdog_kills,
                "sanitize_violations": sanitize_violations,
            },
        })

    def _get_metrics(self, request: Request, _sid: Optional[str]) -> Response:
        return Response.text(to_prometheus(self.registry))

    def _get_report(self, request: Request, _sid: Optional[str]) -> Response:
        return Response.text(run_report(self.registry, title="qdd-service"))

    # ------------------------------------------------------------------
    # streaming endpoints (SSE)
    # ------------------------------------------------------------------
    @staticmethod
    def _last_event_id(request: Request) -> Optional[int]:
        raw = request.headers.get("last-event-id")
        if raw is None:
            # EventSource cannot set headers on the *first* connect, so a
            # query parameter doubles as the resume cursor for tests and
            # curl-style clients.
            raw = request.query.get("last_event_id")
        if raw is None:
            return None
        try:
            return int(raw)
        except ValueError:
            raise BadRequestError("Last-Event-ID must be an integer")

    def _count_stream(
        self, endpoint: str, cleanup: Optional[Callable[[], None]] = None
    ) -> Callable[[], None]:
        """Count a streaming response in (503 at the cap); return a releaser.

        ``cleanup`` runs on rejection *and* on release — it is how SSE
        subscriptions get closed.  NDJSON batch streams count against the
        same ``max_streams`` cap as SSE: every open stream is a long-lived
        connection the drain path has to wait for.
        """
        if self._shutting_down.is_set():
            if cleanup is not None:
                cleanup()
            raise ServiceUnavailableError("the service is shutting down")
        with self._streams_lock:
            if self._streams >= self.config.max_streams:
                if cleanup is not None:
                    cleanup()
                raise ServiceUnavailableError(
                    f"too many open streams (limit {self.config.max_streams}); "
                    "retry later",
                    retry_after=1.0,
                )
            self._streams += 1
            self._m_streams.set(self._streams)
        self.registry.counter(
            "service_stream_connections_total", {"endpoint": endpoint}
        ).inc()
        released = threading.Event()

        def release() -> None:
            if released.is_set():
                return
            released.set()
            if cleanup is not None:
                cleanup()
            with self._streams_lock:
                self._streams -= 1
                self._m_streams.set(self._streams)

        return release

    def _open_stream(self, endpoint: str, subscription: Subscription) -> Callable[[], None]:
        """Count an SSE stream in, closing its subscription on release."""
        return self._count_stream(endpoint, cleanup=subscription.close)

    @staticmethod
    def _sse_headers() -> Dict[str, str]:
        return {"Cache-Control": "no-cache", "X-Accel-Buffering": "no"}

    def _get_session_stream(self, request: Request, session_id: str) -> StreamingResponse:
        handle = self.store.get(session_id)
        last_id = self._last_event_id(request)
        # A fresh subscriber replays the full frame history (id 0 = "from
        # the beginning"); a reconnecting one resumes after its cursor.
        subscription = handle.events.subscribe(
            last_event_id=0 if last_id is None else last_id,
            max_queue=self.config.stream_queue,
        )
        release = self._open_stream("/sessions/{id}/stream", subscription)
        return StreamingResponse(
            200, "text/event-stream",
            self._session_stream_chunks(subscription, release),
            headers=self._sse_headers(), on_close=release,
        )

    def _session_stream_chunks(
        self, subscription: Subscription, release: Callable[[], None]
    ) -> Iterator[bytes]:
        heartbeat = max(0.05, self.config.heartbeat_interval)
        try:
            yield b"retry: 2000\n\n"
            while True:
                event = subscription.get(timeout=heartbeat)
                if event is None:
                    if subscription.closed:
                        break
                    yield b": heartbeat\n\n"
                    continue
                yield event.to_sse().encode()
                if event.kind == "closed":
                    break
        finally:
            release()

    def _get_metrics_stream(self, request: Request, _sid: Optional[str]) -> StreamingResponse:
        # Deltas are relative to the snapshot sent on *this* connection, so
        # a reconnect starts from a fresh full snapshot; Last-Event-ID only
        # resumes the forwarded state events (lifecycle/pressure/sanitize).
        subscription = self.events.subscribe(
            last_event_id=self._last_event_id(request),
            max_queue=self.config.stream_queue,
        )
        release = self._open_stream("/stream/metrics", subscription)
        return StreamingResponse(
            200, "text/event-stream",
            self._metrics_stream_chunks(subscription, release),
            headers=self._sse_headers(), on_close=release,
        )

    def _metrics_stream_chunks(
        self, subscription: Subscription, release: Callable[[], None]
    ) -> Iterator[bytes]:
        interval = max(0.05, self.config.metrics_interval)
        heartbeat = max(interval, self.config.heartbeat_interval)
        try:
            yield b"retry: 2000\n\n"
            reference = registry_snapshot(self.registry)
            yield _sse_chunk("snapshot", reference)
            last_delta = last_write = time.monotonic()
            while True:
                event = subscription.get(timeout=interval)
                now = time.monotonic()
                if event is not None:
                    yield event.to_sse().encode()
                    last_write = now
                elif subscription.closed:
                    yield _sse_chunk("shutdown", {"reason": "server stopping"})
                    break
                if now - last_delta >= interval:
                    current = registry_snapshot(self.registry)
                    delta = snapshot_delta(reference, current)
                    if delta["metrics"]:
                        yield _sse_chunk("delta", delta)
                        reference = current
                        last_write = now
                    last_delta = now
                if now - last_write >= heartbeat:
                    yield b": heartbeat\n\n"
                    last_write = now
        finally:
            release()

    def _get_dashboard(self, request: Request, _sid: Optional[str]) -> Response:
        from repro.vis.dashboard import dashboard_html

        return Response.text(
            dashboard_html(title="qdd-service dashboard"),
            content_type="text/html",
        )

    def _publish_frames(self, handle: SessionHandle) -> None:
        """Publish any session frames not yet on the handle's bus.

        Called with ``handle.lock`` held.  Backward navigation pops
        frames; the stream is append-only, so a shrunk list just rewinds
        the cursor and re-publishes once the session moves forward again.
        """
        frames = getattr(handle.session, "frames", None)
        if frames is None:
            return
        if len(frames) < handle.frames_streamed:
            handle.frames_streamed = len(frames)
        for index in range(handle.frames_streamed, len(frames)):
            frame = frames[index]
            handle.events.publish("frame", {
                "session_id": handle.session_id,
                "index": index,
                "title": frame.title,
                "description": frame.description,
                "svg": frame.svg,
                "text": frame.text,
                "node_count": frame.node_count,
                "position": frame.position,
            })
        handle.frames_streamed = len(frames)

    # ------------------------------------------------------------------
    # session endpoints
    # ------------------------------------------------------------------
    def _post_sessions(self, request: Request, _sid: Optional[str]) -> Response:
        payload = self._json_body(request)
        kind = payload.get("kind", "simulation")
        style_name = payload.get("style", "classic")
        styles = {"classic": DDStyle.classic, "colored": DDStyle.colored,
                  "modern": DDStyle.modern}
        if style_name not in styles:
            raise BadRequestError(
                f"unknown style {style_name!r} (expected one of: "
                f"{', '.join(sorted(styles))})"
            )
        style = styles[style_name]()
        if kind == "simulation":
            qasm = self._require(payload, "qasm")
            seed = self._int_field(payload.get("seed"), "seed", 0)
            circuit = parse_qasm(qasm)  # parse errors become 400 here

            def factory() -> SimulationSession:
                return SimulationSession(circuit, style=style, seed=seed)

        elif kind == "verification":
            left = parse_qasm(self._require(payload, "left"), name="G")
            right = parse_qasm(self._require(payload, "right"), name="G'")

            def factory() -> VerificationSession:
                return VerificationSession(left, right, style=style)

        else:
            raise BadRequestError(
                f"unknown session kind {kind!r} "
                "(expected 'simulation' or 'verification')"
            )
        with depth_limited():
            handle = self.store.create(kind, factory)
        with handle.lock:
            self._publish_frames(handle)  # frame 0: the initial state
            return Response.json(self._status_payload(handle), status=201)

    def _get_sessions(self, request: Request, _sid: Optional[str]) -> Response:
        entries = [
            {
                "session_id": handle.session_id,
                "kind": handle.kind,
                "idle_seconds": round(handle.idle_seconds(), 3),
            }
            for handle in self.store.list()
        ]
        return Response.json({"sessions": entries, "count": len(entries)})

    def _get_session(self, request: Request, session_id: str) -> Response:
        handle = self.store.get(session_id)
        with handle.lock:
            return Response.json(self._status_payload(handle))

    def _delete_session(self, request: Request, session_id: str) -> Response:
        self.store.remove(session_id)
        return Response.json({"deleted": session_id})

    def _post_step(self, request: Request, session_id: str) -> Response:
        handle = self.store.get(session_id)
        payload = self._json_body(request)
        action = self._require(payload, "action")
        count = self._int_field(payload.get("count"), "count", 1)
        if count < 1:
            raise BadRequestError("field 'count' must be >= 1")
        outcome = payload.get("outcome")
        if outcome is not None:
            outcome = self._int_field(outcome, "outcome")
            if outcome not in (0, 1):
                raise BadRequestError("field 'outcome' must be 0 or 1")
        with handle.lock:
            # An overflow leaves the session at its last completed step.
            with depth_limited():
                if handle.kind == "simulation":
                    self._step_simulation(handle.session, action, count, outcome)
                else:
                    self._step_verification(handle.session, action, count)
            handle.touch()
            self._publish_frames(handle)
            return Response.json(self._status_payload(handle))

    @staticmethod
    def _step_simulation(
        session: SimulationSession, action: str, count: int, outcome: Optional[int]
    ) -> None:
        # Multi-step navigation is atomic: bounds are validated before any
        # step executes, so an out-of-range request leaves `position`
        # exactly where it was (a half-applied batch after a mid-loop
        # error would desynchronize the client's view of the session).
        simulator = session.simulator
        if action == "forward":
            remaining = len(session.circuit) - simulator.position
            if count > remaining:
                raise SimulationError(
                    f"cannot step forward {count} operation(s): only "
                    f"{remaining} remain (position {simulator.position} of "
                    f"{len(session.circuit)})"
                )
            for index in range(count):
                # An explicit outcome answers only the dialog pending *now*;
                # later steps in the same batch fall back to the session's
                # seeded RNG.  Replaying one forced outcome onto every
                # measurement/reset in the batch would silently bias them.
                session.forward(outcome=outcome if index == 0 else None)
        elif action == "backward":
            if count > simulator.position:
                raise SimulationError(
                    f"cannot step backward {count} operation(s) from "
                    f"position {simulator.position}"
                )
            for _ in range(count):
                session.backward()
        elif action == "to_end":
            session.to_end(stop_at_breakpoints=False)
        elif action == "run":  # fast-forward to the next breakpoint
            session.to_end(stop_at_breakpoints=True)
        elif action == "to_start":
            session.to_start()
        else:
            raise BadRequestError(
                f"unknown simulation action {action!r} (expected forward, "
                "backward, to_end, run or to_start)"
            )

    @staticmethod
    def _step_verification(
        session: VerificationSession, action: str, count: int
    ) -> None:
        # Same atomicity contract as _step_simulation: validate first.
        if action == "left":
            if count > session.left_remaining:
                raise SimulationError(
                    f"cannot apply {count} gate(s) from G: only "
                    f"{session.left_remaining} remain"
                )
            session.apply_left(count)
        elif action == "right":
            if count > session.right_remaining:
                raise SimulationError(
                    f"cannot apply {count} gate(s) from G': only "
                    f"{session.right_remaining} remain"
                )
            session.apply_right(count)
        elif action == "right_to_barrier":
            session.apply_right_to_barrier()
        elif action == "compilation_flow":
            session.run_compilation_flow()
        else:
            raise BadRequestError(
                f"unknown verification action {action!r} (expected left, "
                "right, right_to_barrier or compilation_flow)"
            )

    def _get_svg(self, request: Request, session_id: str) -> Response:
        handle = self.store.get(session_id)
        with handle.lock:
            return Response.text(
                handle.session.current_svg(), content_type="image/svg+xml"
            )

    def _get_text(self, request: Request, session_id: str) -> Response:
        handle = self.store.get(session_id)
        with handle.lock:
            return Response.text(handle.session.current_text())

    def _get_counts(self, request: Request, session_id: str) -> Response:
        handle = self.store.get(session_id)
        if handle.kind != "simulation":
            raise BadRequestError("only simulation sessions can be sampled")
        shots = self._int_field(request.query.get("shots"), "shots", 256)
        if shots < 1:
            raise BadRequestError("query parameter 'shots' must be >= 1")
        if shots > MAX_SHOTS:
            raise BadRequestError(
                f"query parameter 'shots' must be <= {MAX_SHOTS}"
            )
        seed = request.query.get("seed")
        seed = self._int_field(seed, "seed") if seed is not None else None
        with handle.lock:
            counts = handle.session.sample_counts(shots, seed=seed)
            handle.touch()
            handle.events.publish("counts", {
                "session_id": handle.session_id,
                "shots": shots,
                "counts": counts,
            })
        return Response.json({"shots": shots, "counts": counts})

    # ------------------------------------------------------------------
    # one-shot batch endpoints (worker pool + result cache)
    # ------------------------------------------------------------------
    def _simulate_once(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Validate and run one simulate job (cache → free shard), as a dict."""
        qasm = self._require(payload, "qasm")
        shots = self._int_field(payload.get("shots"), "shots", 0)
        if shots < 0:
            raise BadRequestError("field 'shots' must be >= 0")
        if shots > MAX_SHOTS:
            raise BadRequestError(f"field 'shots' must be <= {MAX_SHOTS}")
        # A deterministic default seed makes repeated identical requests
        # cache-safe even for circuits with mid-circuit measurements.
        seed = self._int_field(payload.get("seed"), "seed", 0)
        digest = parse_qasm(qasm).digest()
        # The cache key must fold every request parameter that changes the
        # response — shots and seed — not just the circuit digest, or
        # differing requests would collide on one cached result.
        key = ("simulate", digest, shots, seed)
        hit, cached = self.cache.get(key)
        if hit:
            return dict(cached, cached=True)
        result = self.pool.submit("simulate", simulate_job, qasm, shots, seed)
        result["digest"] = digest
        self.cache.put(key, result)
        return dict(result, cached=False)

    def _post_simulate(self, request: Request, _sid: Optional[str]) -> Response:
        return Response.json(self._simulate_once(self._json_body(request)))

    def _post_simulate_batch(
        self, request: Request, _sid: Optional[str]
    ) -> StreamingResponse:
        """Accept an array of simulate jobs; stream NDJSON as shards finish.

        Each line is ``{"index": i, "ok": true, ...result}`` or
        ``{"index": i, "ok": false, "error": {...}}`` — completion order,
        with ``index`` tying a line back to its job.  Per-job semantics
        match ``/simulate`` exactly: result cache, first-free-shard
        dispatch, rate limiting, pressure shedding and watchdog
        deadlines (shed/timed-out jobs become per-job errors, not a
        failed batch).
        """
        payload = self._json_body(request)
        jobs = payload.get("jobs")
        if not isinstance(jobs, list) or not jobs:
            raise BadRequestError(
                "field 'jobs' must be a non-empty array of job objects"
            )
        if len(jobs) > self.config.batch_max_jobs:
            raise RequestTooLargeError(
                f"batch of {len(jobs)} jobs exceeds the "
                f"{self.config.batch_max_jobs}-job limit"
            )
        for job in jobs:
            if not isinstance(job, dict):
                raise BadRequestError("every batch job must be a JSON object")
        release = self._count_stream("/simulate/batch")
        return StreamingResponse(
            200, "application/x-ndjson",
            self._batch_chunks(list(jobs), release),
            headers={"Cache-Control": "no-cache"},
            on_close=release,
        )

    def _run_batch_job(self, index: int, job: Dict[str, Any]) -> Dict[str, Any]:
        try:
            # Batch jobs pass the same token bucket as individual requests
            # (the batch POST itself consumed one token for its envelope).
            if self._limiter is not None and not self._limiter.admit():
                raise RateLimitedError("request rate limit exceeded")
            return {"index": index, "ok": True, **self._simulate_once(job)}
        except ReproError as error:
            body = json.loads(self._error_response(error).body)
            return {"index": index, "ok": False, **body}
        except Exception as error:  # noqa: BLE001 - per-job last resort
            return {"index": index, "ok": False, "error": {
                "type": type(error).__name__, "message": str(error),
                "status": 500,
            }}

    def _batch_chunks(
        self, jobs: list, release: Callable[[], None]
    ) -> Iterator[bytes]:
        results: "queue.SimpleQueue" = queue.SimpleQueue()
        pending: "queue.SimpleQueue" = queue.SimpleQueue()
        for item in enumerate(jobs):
            pending.put(item)

        def runner() -> None:
            while True:
                try:
                    index, job = pending.get_nowait()
                except queue.Empty:
                    return
                results.put(self._run_batch_job(index, job))

        # One runner per shard keeps every shard busy without queueing more
        # blocked threads than the pool can serve concurrently.
        fanout = min(len(jobs), max(1, self.pool.workers))
        try:
            threads = [
                threading.Thread(
                    target=runner, name=f"qdd-batch-{i}", daemon=True
                )
                for i in range(fanout)
            ]
            for thread in threads:
                thread.start()
            for _ in range(len(jobs)):
                line = results.get()
                yield (json.dumps(line, separators=(",", ":")) + "\n").encode()
        finally:
            release()

    def _post_verify(self, request: Request, _sid: Optional[str]) -> Response:
        payload = self._json_body(request)
        left = self._require(payload, "left")
        right = self._require(payload, "right")
        strategy = payload.get("strategy", "proportional")
        if not isinstance(strategy, str):
            raise BadRequestError("field 'strategy' must be a string")
        left_digest = parse_qasm(left).digest()
        right_digest = parse_qasm(right).digest()
        key = ("verify", left_digest, right_digest, strategy)
        hit, cached = self.cache.get(key)
        if hit:
            return Response.json(dict(cached, cached=True))
        result = self.pool.submit("verify", verify_job, left, right, strategy)
        self.cache.put(key, result)
        return Response.json(dict(result, cached=False))

    # ------------------------------------------------------------------
    # status rendering
    # ------------------------------------------------------------------
    def _status_payload(self, handle: SessionHandle) -> Dict[str, Any]:
        if handle.kind == "simulation":
            session: SimulationSession = handle.session
            simulator = session.simulator
            dialog = session.pending_dialog()
            return {
                "session_id": handle.session_id,
                "kind": "simulation",
                "circuit": session.circuit.name,
                "num_qubits": session.circuit.num_qubits,
                "position": simulator.position,
                "total": len(session.circuit),
                "at_start": simulator.at_start,
                "at_end": simulator.at_end,
                "node_count": simulator.node_count(),
                "peak_node_count": simulator.peak_node_count,
                "classical_bits": list(simulator.classical_bits),
                "pending_dialog": None if dialog is None else {
                    "kind": dialog[0], "qubit": dialog[1],
                    "p0": dialog[2], "p1": dialog[3],
                },
            }
        session: VerificationSession = handle.session
        return {
            "session_id": handle.session_id,
            "kind": "verification",
            "left": session.left.name,
            "right": session.right.name,
            "num_qubits": session.left.num_qubits,
            "left_applied": session.left_position,
            "left_total": session.left_total,
            "right_applied": session.right_position,
            "right_total": session.right_total,
            "finished": session.finished,
            "node_count": session.node_count,
            "peak_node_count": session.peak_node_count,
            "is_identity": session.is_identity(),
        }
