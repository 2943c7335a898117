"""repro.service — the multi-client visualization/simulation server.

The paper's artifact is an installation-free *web tool*; this package is
the deployment shape behind such a tool: a JSON-over-HTTP service exposing
the step-through session semantics of :mod:`repro.tool.session` to many
concurrent clients, plus one-shot batch ``/simulate`` and ``/verify``
endpoints that run on a pool of worker processes (a fresh
:class:`~repro.dd.package.DDPackage` per job) and are memoized in an
LRU result cache keyed on the canonical circuit digest
(:func:`repro.qc.hashing.circuit_digest`).  Live observability rides on
Server-Sent Events: per-session frame streams, a metrics-delta stream and
the self-contained ``/dashboard`` page (see ``docs/dashboard.md``).

Layers (all stdlib, no new dependencies):

* :mod:`repro.service.app` — transport-free request routing and handlers;
* :mod:`repro.service.eventloop` — the HTTP transport, a non-blocking
  ``selectors`` reactor: incremental HTTP parsing that answers any
  malformed framing with a structured 4xx (mutation-fuzzed with a
  rotating ``HTTP_FUZZ_SEED``), keep-alive, backpressure-aware streaming
  writes;
* :mod:`repro.service.server` — :class:`DDToolServer`, the app bound to
  the reactor, with graceful SIGTERM drain (``qdd-tool serve``);
* :mod:`repro.service.sessions` — TTL/LRU session store with backpressure;
* :mod:`repro.service.cache` — the LRU result cache;
* :mod:`repro.service.workers` — the process pool and its job functions.

See ``docs/service.md`` for the API reference with curl examples.
"""

from repro.service.app import (
    Request,
    Response,
    ServiceApp,
    ServiceConfig,
    StreamingResponse,
)
from repro.service.cache import ResultCache
from repro.service.eventloop import SelectorFrontEnd
from repro.service.server import DDToolServer, serve
from repro.service.sessions import SessionHandle, SessionStore
from repro.service.workers import WorkerPool, simulate_job, verify_job

__all__ = [
    "DDToolServer",
    "Request",
    "Response",
    "ResultCache",
    "SelectorFrontEnd",
    "ServiceApp",
    "ServiceConfig",
    "SessionHandle",
    "SessionStore",
    "StreamingResponse",
    "WorkerPool",
    "serve",
    "simulate_job",
    "verify_job",
]
