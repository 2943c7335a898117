"""The HTTP server in front of :class:`~repro.service.app.ServiceApp`.

:class:`DDToolServer` binds the transport-free app to the non-blocking
``selectors`` reactor in :mod:`repro.service.eventloop`: one thread
multiplexes every connection, handlers run on a bounded pool, and
streaming bodies are written with backpressure.  It answers structured
JSON errors (including 400s for malformed ``Content-Length`` headers and
duplicated query parameters), ``HEAD`` for load-balancer probes,
keep-alive, and chunked streaming responses.

Shutdown is graceful: ``SIGTERM``/``SIGINT`` stop the accept loop, wait
for in-flight requests and open streams to drain (bounded by
``config.drain_timeout``) and then reap the worker pool.
:class:`DDToolServer` is also directly embeddable — ``start()``/``stop()``
is what the tests and the benchmarks use.
"""

from __future__ import annotations

import signal
import sys
import threading
import time
from typing import Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.service.app import ServiceApp, ServiceConfig
from repro.service.eventloop import SelectorFrontEnd, display_host

__all__ = ["DDToolServer", "serve"]


class DDToolServer:
    """An embeddable service instance bound to one host/port."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        verbose: bool = False,
    ):
        self.config = config if config is not None else ServiceConfig()
        self.app = ServiceApp(self.config, registry=registry)
        self._frontend = SelectorFrontEnd(
            self.app,
            self.config.host,
            self.config.port,
            handler_threads=self.config.handler_threads,
            verbose=verbose,
        )

    @property
    def address(self) -> Tuple[str, int]:
        """The actually bound ``(host, port)`` (port 0 resolves here)."""
        return self._frontend.server_address[:2]

    @property
    def url(self) -> str:
        """A URL clients can actually dial (wildcard hosts → loopback)."""
        host, port = self.address
        return f"http://{display_host(host)}:{port}"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Block serving requests until :meth:`stop` (or shutdown) is called."""
        self._frontend.serve_forever()

    def start(self) -> "DDToolServer":
        """Serve on background threads (for embedding and tests)."""
        self._frontend.start()
        return self

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for in-flight requests to finish; True if fully drained."""
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.config.drain_timeout
        )
        while self.app.inflight and time.monotonic() < deadline:
            time.sleep(0.01)
        return self.app.inflight == 0

    def drain_streams(self, timeout: Optional[float] = None) -> bool:
        """Wake open SSE streams and wait for them to close cleanly.

        Call after the accept loop stopped: :meth:`ServiceApp.begin_shutdown`
        unblocks every subscriber, the stream generators send their final
        event, and the connections wind down.  True if none remain.
        """
        self.app.begin_shutdown()
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.config.drain_timeout
        )
        while self.app.active_streams and time.monotonic() < deadline:
            time.sleep(0.01)
        return self.app.active_streams == 0

    def stop(self, drain: bool = True) -> bool:
        """Stop accepting, optionally drain in-flight work, reap the pool.

        Open streams and in-flight requests each get up to
        ``config.drain_timeout`` to finish; True if both drained.
        """
        self._frontend.shutdown()
        drained = True
        if drain:
            streams_drained = self.drain_streams()
            drained = self.drain() and streams_drained
        self._frontend.close()
        self.app.close()
        return drained

    def __enter__(self) -> "DDToolServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve(
    config: Optional[ServiceConfig] = None,
    verbose: bool = True,
    install_signal_handlers: bool = True,
) -> int:
    """Run a server in the foreground until SIGTERM/SIGINT (CLI entry)."""
    server = DDToolServer(config, verbose=verbose)
    stop_requested = threading.Event()

    def _request_stop(signum, _frame):  # pragma: no cover - signal path
        if stop_requested.is_set():
            return
        stop_requested.set()
        print(f"\nreceived signal {signum}: draining...", file=sys.stderr)

    if install_signal_handlers:
        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)
    print(
        f"qdd-service listening on {server.url} "
        f"({server.config.workers} worker shard(s), "
        f"{server.config.max_sessions} session slots); "
        "endpoints: /sessions /simulate /simulate/batch /verify /metrics "
        "/healthz /dashboard",
        file=sys.stderr,
    )
    server.start()
    try:
        while not stop_requested.is_set():
            stop_requested.wait(timeout=0.2)
    except KeyboardInterrupt:  # pragma: no cover - no handler installed
        pass
    drained = server.stop()
    print(
        "qdd-service stopped"
        + ("" if drained else " (drain timeout; some requests were cut off)"),
        file=sys.stderr,
    )
    return 0
