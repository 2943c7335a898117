"""Unit tests for the service layer (transport-free, workers inline)."""

import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.dd import DDPackage, sampling
from repro.errors import ServiceError, SessionLimitError, SessionNotFoundError
from repro.obs.metrics import MetricsRegistry
from repro.qc import library
from repro.qc.qasm.parser import parse_qasm
from repro.service import (
    Request,
    ResultCache,
    ServiceApp,
    ServiceConfig,
    SessionStore,
)
from repro.service.workers import WorkerPool, simulate_job, verify_job
from repro.simulation.simulator import DDSimulator
from repro.tool.cli import main
from tests.test_qasm_parser import doubling_chain


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------
class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        hit, _ = cache.get("k")
        assert not hit
        cache.put("k", {"x": 1})
        hit, value = cache.get("k")
        assert hit and value == {"x": 1}

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a")[0]     # refresh "a": now "b" is the LRU
        cache.put("c", 3)
        assert len(cache) == 2
        assert not cache.get("b")[0]
        assert cache.get("a")[0] and cache.get("c")[0]

    def test_zero_capacity_never_stores(self):
        cache = ResultCache(capacity=0)
        cache.put("a", 1)
        assert not cache.get("a")[0]

    def test_metrics_recorded(self):
        registry = MetricsRegistry(enabled=True)
        cache = ResultCache(capacity=1, registry=registry)
        cache.get("a")
        cache.put("a", 1)
        cache.get("a")
        cache.put("b", 2)  # evicts "a"
        assert registry.get("service_cache_hits_total").value == 1
        assert registry.get("service_cache_misses_total").value == 1
        assert registry.get("service_cache_evictions_total").value == 1
        assert registry.get("service_cache_entries").value == 1


# ----------------------------------------------------------------------
# session store
# ----------------------------------------------------------------------
class TestSessionStore:
    def test_create_get_remove(self):
        store = SessionStore(max_sessions=4)
        handle = store.create("simulation", lambda: object())
        assert store.get(handle.session_id) is handle
        store.remove(handle.session_id)
        with pytest.raises(SessionNotFoundError):
            store.get(handle.session_id)

    def test_unknown_id_raises(self):
        store = SessionStore()
        with pytest.raises(SessionNotFoundError):
            store.get("nope")
        with pytest.raises(SessionNotFoundError):
            store.remove("nope")

    def test_ttl_expiry(self):
        now = [0.0]
        store = SessionStore(max_sessions=4, ttl=10.0, clock=lambda: now[0])
        handle = store.create("simulation", lambda: object())
        now[0] = 5.0
        assert store.get(handle.session_id) is handle  # touch resets idle
        now[0] = 16.0
        with pytest.raises(SessionNotFoundError):
            store.get(handle.session_id)
        assert len(store) == 0

    def test_lru_eviction_when_full(self):
        now = [0.0]
        store = SessionStore(max_sessions=2, ttl=1000.0, clock=lambda: now[0])
        first = store.create("simulation", lambda: object())
        now[0] = 1.0
        second = store.create("simulation", lambda: object())
        now[0] = 2.0
        store.get(first.session_id)  # make *second* the LRU
        now[0] = 3.0
        store.create("simulation", lambda: object())
        assert store.get(first.session_id) is first
        with pytest.raises(SessionNotFoundError):
            store.get(second.session_id)

    def test_backpressure_when_all_busy(self):
        import threading

        store = SessionStore(max_sessions=1, ttl=1000.0)
        handle = store.create("simulation", lambda: object())
        # A busy session's lock is held by *another* handler thread (the
        # session lock is an RLock, so holding it here would not block us).
        held = threading.Event()
        release = threading.Event()

        def hold():
            with handle.lock:
                held.set()
                release.wait(5.0)

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            assert held.wait(5.0)
            with pytest.raises(SessionLimitError):
                store.create("simulation", lambda: object())
        finally:
            release.set()
            thread.join()
        # once released it can be evicted
        store.create("simulation", lambda: object())
        with pytest.raises(SessionNotFoundError):
            store.get(handle.session_id)


# ----------------------------------------------------------------------
# the app (inline workers: no subprocesses in unit tests)
# ----------------------------------------------------------------------
@pytest.fixture
def app():
    application = ServiceApp(
        ServiceConfig(workers=0, max_body_bytes=64 * 1024),
        registry=MetricsRegistry(enabled=True),
    )
    yield application
    application.close()


def _post(app, path, payload):
    return app.handle(Request("POST", path, body=json.dumps(payload).encode()))


def _json(response):
    return json.loads(response.body.decode())


QFT = library.qft(3).to_qasm()
QFT_COMPILED = library.qft_compiled(3).to_qasm()


class TestInfrastructureEndpoints:
    def test_healthz(self, app):
        response = app.handle(Request("GET", "/healthz"))
        assert response.status == 200
        assert _json(response)["status"] == "ok"

    def test_metrics_exposes_request_counters(self, app):
        app.handle(Request("GET", "/healthz"))
        body = app.handle(Request("GET", "/metrics")).body.decode()
        assert 'service_requests_total{endpoint="/healthz"' in body
        assert "service_cache_misses_total" in body

    def test_report(self, app):
        response = app.handle(Request("GET", "/report"))
        assert response.status == 200
        assert "run report" in response.body.decode()

    def test_unknown_route_404(self, app):
        response = app.handle(Request("GET", "/nope"))
        assert response.status == 404
        assert _json(response)["error"]["status"] == 404

    def test_oversized_body_413(self, app):
        big = {"kind": "simulation", "qasm": "x" * (64 * 1024 + 1)}
        response = _post(app, "/sessions", big)
        assert response.status == 413


class TestSimulationSessions:
    def test_full_session_lifecycle(self, app):
        response = _post(app, "/sessions", {"kind": "simulation", "qasm": QFT})
        assert response.status == 201
        status = _json(response)
        sid = status["session_id"]
        assert status["total"] == 7 and status["position"] == 0

        response = _post(app, f"/sessions/{sid}/step", {"action": "forward"})
        assert _json(response)["position"] == 1

        response = _post(app, f"/sessions/{sid}/step", {"action": "to_end"})
        status = _json(response)
        assert status["at_end"] and status["node_count"] == 3

        response = _post(app, f"/sessions/{sid}/step", {"action": "backward",
                                                        "count": 2})
        assert _json(response)["position"] == 5

        svg = app.handle(Request("GET", f"/sessions/{sid}/svg"))
        assert svg.status == 200 and svg.body.startswith(b"<svg")
        text = app.handle(Request("GET", f"/sessions/{sid}/text"))
        assert text.status == 200

        response = app.handle(Request("DELETE", f"/sessions/{sid}"))
        assert response.status == 200
        assert app.handle(Request("GET", f"/sessions/{sid}")).status == 404

    def test_too_deep_step_is_413_and_keeps_the_session(self, app):
        # 256 qubits pass the parser's register cap, but the DD recursion
        # overflows the interpreter's stack near 250 levels, part-way
        # through the circuit.
        response = _post(app, "/sessions", {"kind": "simulation",
                                            "qasm": library.ghz_state(256).to_qasm()})
        assert response.status == 201
        sid = _json(response)["session_id"]
        response = _post(app, f"/sessions/{sid}/step", {"action": "to_end"})
        assert response.status == 413
        assert _json(response)["error"]["type"] == "CircuitTooLargeError"

        response = app.handle(Request("GET", f"/sessions/{sid}"))
        assert response.status == 200
        status = _json(response)
        position = status["position"]
        assert 0 < position < status["total"] and not status["at_end"]
        # The last completed step: one frame per position, the initial one too.
        assert len(app.store.get(sid).session.frames) == position + 1
        assert app.handle(Request("GET", f"/sessions/{sid}/text")).status == 200

        response = _post(app, f"/sessions/{sid}/step", {"action": "backward"})
        assert response.status == 200
        assert _json(response)["position"] == position - 1

    def test_measurement_dialog_over_http(self, app):
        qasm = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];\n"
        sid = _json(_post(app, "/sessions", {"kind": "simulation",
                                             "qasm": qasm}))["session_id"]
        status = _json(_post(app, f"/sessions/{sid}/step", {"action": "forward"}))
        dialog = status["pending_dialog"]
        assert dialog["kind"] == "measure"
        assert dialog["p0"] == pytest.approx(0.5)
        status = _json(_post(app, f"/sessions/{sid}/step",
                             {"action": "forward", "outcome": 1}))
        assert status["classical_bits"] == [1]

    def test_counts_endpoint(self, app):
        sid = _json(_post(app, "/sessions", {"kind": "simulation",
                                             "qasm": QFT}))["session_id"]
        _post(app, f"/sessions/{sid}/step", {"action": "to_end"})
        response = app.handle(Request(
            "GET", f"/sessions/{sid}/counts", query={"shots": "64", "seed": "1"}
        ))
        counts = _json(response)["counts"]
        assert sum(counts.values()) == 64

    def test_counts_shots_capped(self, app):
        from repro.service.app import MAX_SHOTS

        sid = _json(_post(app, "/sessions", {"kind": "simulation",
                                             "qasm": QFT}))["session_id"]
        response = app.handle(Request(
            "GET", f"/sessions/{sid}/counts",
            query={"shots": str(MAX_SHOTS + 1)},
        ))
        assert response.status == 400
        error = _json(response)["error"]
        assert error["type"] == "BadRequestError"
        assert str(MAX_SHOTS) in error["message"]

    def test_step_past_end_409(self, app):
        qasm = "OPENQASM 2.0;\nqreg q[1];\n"
        sid = _json(_post(app, "/sessions", {"kind": "simulation",
                                             "qasm": qasm}))["session_id"]
        response = _post(app, f"/sessions/{sid}/step", {"action": "forward"})
        assert response.status == 409
        assert _json(response)["error"]["type"] == "SimulationError"

    def test_multi_step_past_end_is_atomic(self, app):
        # Regression: a forward batch that overruns the final operation must
        # fail *before* executing any step, not leave the session stranded
        # somewhere in the middle of a half-applied batch.
        sid = _json(_post(app, "/sessions", {"kind": "simulation",
                                             "qasm": QFT}))["session_id"]
        _post(app, f"/sessions/{sid}/step", {"action": "forward", "count": 3})
        response = _post(app, f"/sessions/{sid}/step",
                         {"action": "forward", "count": 99})
        assert response.status == 409
        status = _json(app.handle(Request("GET", f"/sessions/{sid}")))
        assert status["position"] == 3  # unchanged — still resumable
        # ... and the session still steps normally afterwards.
        after = _json(_post(app, f"/sessions/{sid}/step",
                            {"action": "forward"}))
        assert after["position"] == 4

    def test_multi_step_backward_past_start_is_atomic(self, app):
        sid = _json(_post(app, "/sessions", {"kind": "simulation",
                                             "qasm": QFT}))["session_id"]
        _post(app, f"/sessions/{sid}/step", {"action": "forward", "count": 2})
        response = _post(app, f"/sessions/{sid}/step",
                         {"action": "backward", "count": 5})
        assert response.status == 409
        status = _json(app.handle(Request("GET", f"/sessions/{sid}")))
        assert status["position"] == 2

    def test_outcome_answers_only_the_pending_dialog(self, app):
        # Regression: a forced outcome in a multi-step batch used to be
        # replayed onto *every* measurement in the batch.  Here the second
        # measurement is of a deterministic |1> qubit: forcing outcome=0
        # onto it would fail (or corrupt the state), so the batch only
        # succeeds if the outcome answers just the first (pending) dialog.
        qasm = (
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
            "qreg q[2];\ncreg c[2];\n"
            "h q[0];\nmeasure q[0] -> c[0];\n"
            "x q[1];\nmeasure q[1] -> c[1];\n"
        )
        sid = _json(_post(app, "/sessions", {"kind": "simulation",
                                             "qasm": qasm}))["session_id"]
        _post(app, f"/sessions/{sid}/step", {"action": "forward"})  # H
        status = _json(_post(app, f"/sessions/{sid}/step",
                             {"action": "forward", "count": 3, "outcome": 0}))
        assert status["at_end"]
        assert status["classical_bits"] == [0, 1]

    def test_bad_inputs_400(self, app):
        assert _post(app, "/sessions", {"kind": "simulation"}).status == 400
        assert _post(app, "/sessions", {"kind": "wat", "qasm": QFT}).status == 400
        assert _post(app, "/sessions", {"kind": "simulation",
                                        "qasm": "bork"}).status == 400
        assert app.handle(Request(
            "POST", "/sessions", body=b"{not json"
        )).status == 400
        sid = _json(_post(app, "/sessions", {"kind": "simulation",
                                             "qasm": QFT}))["session_id"]
        assert _post(app, f"/sessions/{sid}/step",
                     {"action": "sideways"}).status == 400
        assert _post(app, f"/sessions/{sid}/step",
                     {"action": "forward", "outcome": 7}).status == 400


class TestVerificationSessions:
    def test_compilation_flow_peak_nine(self, app):
        response = _post(app, "/sessions", {
            "kind": "verification", "left": QFT, "right": QFT_COMPILED,
        })
        assert response.status == 201
        sid = _json(response)["session_id"]
        status = _json(_post(app, f"/sessions/{sid}/step",
                             {"action": "compilation_flow"}))
        assert status["finished"]
        assert status["is_identity"]
        assert status["peak_node_count"] == 9  # paper Ex. 12

    def test_manual_left_right_steps(self, app):
        sid = _json(_post(app, "/sessions", {
            "kind": "verification", "left": QFT, "right": QFT_COMPILED,
        }))["session_id"]
        status = _json(_post(app, f"/sessions/{sid}/step", {"action": "left"}))
        assert status["left_applied"] == 1
        status = _json(_post(app, f"/sessions/{sid}/step",
                             {"action": "right_to_barrier"}))
        assert status["right_applied"] > 0

    def test_mismatched_qubits_409(self, app):
        other = library.qft(2).to_qasm()
        response = _post(app, "/sessions", {
            "kind": "verification", "left": QFT, "right": other,
        })
        assert response.status == 409
        assert _json(response)["error"]["type"] == "VerificationError"


class TestBatchEndpoints:
    def test_simulate_and_cache(self, app):
        first = _json(_post(app, "/simulate", {"qasm": QFT, "shots": 32}))
        assert first["cached"] is False
        assert first["nodes"] == 3
        assert sum(first["counts"].values()) == 32
        second = _json(_post(app, "/simulate", {"qasm": QFT, "shots": 32}))
        assert second["cached"] is True
        assert second["counts"] == first["counts"]

    def test_simulate_shots_capped(self, app):
        from repro.service.app import MAX_SHOTS

        response = _post(app, "/simulate", {"qasm": QFT, "shots": MAX_SHOTS + 1})
        assert response.status == 400
        assert _json(response)["error"]["type"] == "BadRequestError"

    def test_batch_job_shots_capped(self, app):
        from repro.service.app import MAX_SHOTS

        response = _post(app, "/simulate/batch", {"jobs": [
            {"qasm": QFT, "shots": 8},
            {"qasm": QFT, "shots": MAX_SHOTS + 1},
        ]})
        assert response.status == 200
        try:
            lines = [json.loads(chunk) for chunk in response.chunks]
        finally:
            response.close()
        by_index = {line["index"]: line for line in lines}
        assert by_index[0]["ok"] and sum(by_index[0]["counts"].values()) == 8
        assert not by_index[1]["ok"]
        assert by_index[1]["error"]["type"] == "BadRequestError"
        assert by_index[1]["error"]["status"] == 400

    def test_simulate_too_deep_circuit_is_413(self, app):
        # 256 qubits pass the parser's register cap, but the DD recursion
        # overflows the interpreter's stack near 250 levels.
        response = _post(app, "/simulate", {"qasm": library.ghz_state(256).to_qasm()})
        assert response.status == 413
        assert _json(response)["error"]["type"] == "CircuitTooLargeError"
        # The overflow leaves nothing behind: the next job is answered.
        assert _post(app, "/simulate", {"qasm": QFT}).status == 200

    def test_simulate_too_deep_multi_register_circuit_is_413(self, app):
        # Five registers of 50 qubits each stay under every parser cap.
        names = [f"q{r}" for r in range(5)]
        lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
        lines += [f"qreg {name}[50];" for name in names]
        qubits = [f"{name}[{i}]" for name in names for i in range(50)]
        lines.append(f"h {qubits[0]};")
        lines += [f"cx {a},{b};" for a, b in zip(qubits, qubits[1:])]
        response = _post(app, "/simulate", {"qasm": "\n".join(lines)})
        assert response.status == 413
        assert _json(response)["error"]["type"] == "CircuitTooLargeError"

    def test_batch_job_too_deep_circuit_is_413(self, app):
        response = _post(app, "/simulate/batch", {"jobs": [
            {"qasm": library.ghz_state(256).to_qasm()},
            {"qasm": QFT},
        ]})
        assert response.status == 200
        try:
            lines = [json.loads(chunk) for chunk in response.chunks]
        finally:
            response.close()
        by_index = {line["index"]: line for line in lines}
        assert not by_index[0]["ok"]
        assert by_index[0]["error"]["type"] == "CircuitTooLargeError"
        assert by_index[0]["error"]["status"] == 413
        assert by_index[1]["ok"]

    def test_cache_keyed_on_digest_not_text(self, app):
        renamed = library.qft(3).copy(name="other").to_qasm()
        _post(app, "/simulate", {"qasm": QFT})
        second = _json(_post(app, "/simulate", {"qasm": renamed}))
        assert second["cached"] is True

    def test_cache_respects_parameters(self, app):
        _post(app, "/simulate", {"qasm": QFT, "shots": 8})
        other = _json(_post(app, "/simulate", {"qasm": QFT, "shots": 16}))
        assert other["cached"] is False

    def test_cache_key_folds_seed(self, app):
        # Regression: two /simulate calls that differ only in a parameter
        # must not collide on one cached result.
        _post(app, "/simulate", {"qasm": QFT, "shots": 8, "seed": 1})
        other = _json(_post(app, "/simulate",
                            {"qasm": QFT, "shots": 8, "seed": 2}))
        assert other["cached"] is False

    def test_verify_strategies_and_cache(self, app):
        payload = {"left": QFT, "right": QFT_COMPILED,
                   "strategy": "compilation-flow"}
        first = _json(_post(app, "/verify", payload))
        assert first["equivalent"] and first["peak_nodes"] == 9
        assert first["cached"] is False
        assert _json(_post(app, "/verify", payload))["cached"] is True
        construct = _json(_post(app, "/verify", {
            "left": QFT, "right": QFT_COMPILED, "strategy": "construct",
        }))
        assert construct["equivalent"]

    def test_verify_unknown_strategy_400(self, app):
        response = _post(app, "/verify", {"left": QFT, "right": QFT,
                                          "strategy": "telepathy"})
        assert response.status == 400

    def test_verify_inequivalent(self, app):
        wrong = library.qft(3)
        wrong.x(0)
        result = _json(_post(app, "/verify", {"left": QFT,
                                              "right": wrong.to_qasm()}))
        assert result["equivalent"] is False


class TestHostileQasm:
    """Parser caps answer 413 and every other parse failure 400, fast."""

    HEADER = 'OPENQASM 2.0; include "qelib1.inc"; '
    WIDE = HEADER + "qreg q[2000000]; h q;"

    @staticmethod
    def _timed_status(app, path, payload):
        start = time.perf_counter()
        response = _post(app, path, payload)
        return response.status, time.perf_counter() - start

    def test_wide_register_body_refused_fast(self, app):
        assert len(self.WIDE.encode()) == 57
        for path in ("/simulate", "/sessions"):
            status, seconds = self._timed_status(
                app, path, {"kind": "simulation", "qasm": self.WIDE})
            assert status == 413 and seconds < 0.1
        status, seconds = self._timed_status(
            app, "/verify", {"left": self.WIDE, "right": QFT})
        assert status == 413 and seconds < 0.1

    def test_doubling_chain_refused_fast(self, app):
        chain = doubling_chain(15)
        assert len(chain) < 1000
        for path in ("/simulate", "/sessions"):
            status, seconds = self._timed_status(
                app, path, {"kind": "simulation", "qasm": chain})
            assert status == 413 and seconds < 0.1

    @pytest.mark.parametrize("expression", [
        "(" * 5000 + "1" + ")" * 5000, "-" * 20000 + "1",
    ], ids=["parentheses", "minus-signs"])
    def test_nesting_answers_400(self, app, expression):
        qasm = self.HEADER + f"qreg q[1]; rz({expression}) q[0];"
        for path in ("/simulate", "/sessions"):
            response = _post(app, path, {"kind": "simulation", "qasm": qasm})
            assert response.status == 400
            assert _json(response)["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("statement", [
        "rz(1e) q[0];", "rz(1.5e+) q[0];", "qreg r[\u00b2];", "rz(1/0) q[0];",
        "rz(sqrt(-1)) q[0];", "rz(ln(0)) q[0];", "rz(10^400) q[0];",
        "rz(exp(1000)) q[0];", "rz((-8)^(1/3)) q[0];", "rz(" + "9" * 5000 + ") q[0];",
    ])
    def test_arithmetic_errors_answer_400(self, app, statement):
        qasm = self.HEADER + "qreg q[1]; " + statement
        assert _post(app, "/simulate", {"qasm": qasm}).status == 400


class TestGovernancePressure:
    def test_503_with_retry_after_under_table_pressure(self, app):
        import time as _time

        # Simulate a worker that just reported HARD pressure: the pool
        # sheds batch load for the cooldown window.
        app.pool._reject_until = _time.monotonic() + 30.0
        response = _post(app, "/simulate", {"qasm": QFT})
        assert response.status == 503
        assert _json(response)["error"]["type"] == "TablePressureError"
        retry_after = response.headers.get("Retry-After")
        assert retry_after is not None and int(retry_after) >= 1
        # Interactive sessions are unaffected — only batch work is shed.
        assert _post(app, "/sessions",
                     {"kind": "simulation", "qasm": QFT}).status == 201
        # Once the window closes, batch requests flow again.
        app.pool._reject_until = 0.0
        assert _post(app, "/simulate", {"qasm": QFT}).status == 200

    def test_healthz_reports_governance(self, app):
        _post(app, "/simulate", {"qasm": QFT})  # produce one worker report
        body = _json(app.handle(Request("GET", "/healthz")))
        assert body["status"] == "ok"
        governance = body["governance"]
        assert governance["pressure"] == 0
        assert governance["watchdog_kills"] == 0
        assert governance["nodes"] >= 0

    def test_metrics_expose_gc_and_watchdog_counters(self):
        app = ServiceApp(ServiceConfig(workers=0, budget_nodes=64),
                         registry=MetricsRegistry(enabled=True))
        try:
            # Every job starts a fresh package: the pool adds up the
            # collections each job's report counts.
            runs = []
            for seed in range(3):
                qasm = library.random_circuit(6, 60, seed=seed).to_qasm()
                assert _post(app, "/simulate", {"qasm": qasm}).status == 200
                runs.append(app.pool.last_report["gc_runs"])
            assert min(runs) > 0
            body = app.handle(Request("GET", "/metrics")).body.decode()
            governance = _json(app.handle(Request("GET", "/healthz")))["governance"]
        finally:
            app.close()
        assert "service_watchdog_kills_total 0" in body
        assert f"dd_gc_runs_total {sum(runs)}" in body
        assert governance["gc_runs"] == sum(runs)


# ----------------------------------------------------------------------
# per-job packages: answers and reports do not depend on job history
# ----------------------------------------------------------------------
#: A probe over H, S, T, CX and rotations.
PROBE = library.random_circuit(6, 40, seed=0).to_qasm()
#: A wrong-answer repro for a package shared across jobs: after simulating
#: TRIGGER (a random-angle circuit), the equivalent pair LEFT/RIGHT (a random
#: circuit and its compiled form) came out "not equivalent".
TRIGGER, LEFT, RIGHT = (
    (Path(__file__).parent / "data" / "service_history" / f"{name}.qasm").read_text()
    for name in ("trigger", "left", "right")
)


def _history():
    """30 simulate/verify jobs of random circuits, then TRIGGER."""
    for seed in range(15):
        qasm = library.random_circuit(5, 30, seed=seed).to_qasm()
        yield "simulate", simulate_job, (qasm, 16, seed)
        yield "verify", verify_job, (qasm, qasm, "proportional")
    yield "simulate", simulate_job, (TRIGGER, 0, 0)


def _probe(pool: WorkerPool):
    """Each probe's full result and its package's governance counts."""
    answers = []
    for kind, fn, args in (
        ("verify", verify_job, (LEFT, RIGHT, "proportional")),
        ("simulate", simulate_job, (PROBE, 64, 5)),
    ):
        result = pool.submit(kind, fn, *args)
        report = pool.last_report
        answers.append((result, report["nodes"], report["table_bytes"]))
    return answers


@pytest.mark.parametrize("workers", [0, 1])
def test_answers_do_not_depend_on_job_history(workers):
    with WorkerPool(workers=workers) as pool:
        expected = _probe(pool)
    with WorkerPool(workers=workers) as pool:
        for kind, fn, args in _history():
            pool.submit(kind, fn, *args)
        assert _probe(pool) == expected
    # The service answers as a cold library package does.
    assert expected[0][0]["equivalent"]
    package = DDPackage()
    simulator = DDSimulator(parse_qasm(PROBE), package=package, seed=5)
    simulator.run_all()
    counts = sampling.sample_counts(
        package, simulator.state, 64, np.random.default_rng(5)
    )
    simulated = expected[1][0]
    assert simulated["nodes"] == simulator.node_count()
    assert simulated["peak_nodes"] == simulator.peak_node_count
    assert simulated["counts"] == counts


def test_one_job_deadline_defaults_to_120_seconds(capsys):
    assert ServiceConfig().request_deadline == 120.0
    with WorkerPool(workers=0) as pool:
        assert pool.request_deadline == 120.0
    for deadline in (0.0, -1.0):
        with pytest.raises(ServiceError, match="request_deadline"):
            WorkerPool(workers=0, request_deadline=deadline)
    # 0 no longer means "fall back"; the CLI refuses it in one line.
    assert main(["serve", "--request-deadline", "0", "--port", "0"]) == 2
    assert "request_deadline must be positive" in capsys.readouterr().err


#: Runs in a fresh interpreter: a worker forked from the test process would
#: inherit every module the suite has already imported.
_WORKER_MODULES_PROBE = """
import json, sys
from repro.service import workers

def loaded():
    return {"campaign": sorted(m for m in sys.modules if m.startswith("repro.campaign"))}

workers._JOB_FUNCTIONS["loaded"] = loaded
with workers.WorkerPool(workers=1) as pool:
    print(json.dumps({"parent": loaded()["campaign"],
                      "worker": pool.submit("loaded", loaded)["campaign"]}))
"""


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the probe job reaches the worker through a forked dispatch table",
)
def test_worker_does_not_load_the_campaign_package():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _WORKER_MODULES_PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(completed.stdout) == {"parent": [], "worker": []}


class TestRateLimit:
    def test_429_when_bucket_empty(self):
        app = ServiceApp(
            ServiceConfig(workers=0, rate_limit=0.001, rate_burst=2),
            registry=MetricsRegistry(enabled=True),
        )
        try:
            codes = [
                app.handle(Request("GET", "/sessions")).status
                for _ in range(4)
            ]
            assert codes[:2] == [200, 200]
            assert 429 in codes[2:]
            # health/metrics bypass the limiter
            assert app.handle(Request("GET", "/healthz")).status == 200
        finally:
            app.close()
