"""HTTP regression suite for the service's ``selectors`` reactor.

The first four test groups are regressions for bugs an earlier
``http.server``-based front end shipped with, which the reactor must not
reintroduce:

* a malformed ``Content-Length`` header (``abc``) used to raise
  ``ValueError`` inside the handler and kill the connection with no
  response — now a structured 400;
* duplicated query parameters were silently collapsed last-wins by
  ``dict(parse_qsl(...))`` — now a structured 400 naming the parameter;
* ``DDToolServer.url`` used to echo the wildcard bind host
  (``http://0.0.0.0:<port>``), which is not dialable — now loopback;
* ``HEAD`` requests got a 501 HTML page — now answered with the GET
  headers (including the entity's true ``Content-Length``) and no body.

Plus keep-alive reuse on a single raw socket, the ``/simulate/batch``
NDJSON endpoint, pipelined requests, first-free-shard dispatch (jobs of
one circuit spread over the shards) and graceful drain.
"""

import json
import socket
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.qc import library
from repro.service import DDToolServer, ServiceConfig

QFT = library.qft(3).to_qasm()


@pytest.fixture(scope="module")
def server():
    config = ServiceConfig(
        host="127.0.0.1", port=0, workers=0,
        cache_capacity=64, batch_max_jobs=8,
    )
    instance = DDToolServer(config).start()
    yield instance
    instance.stop()


def _raw_exchange(server, payload: bytes, timeout: float = 10.0) -> bytes:
    """Send raw bytes on a fresh socket; return everything until close."""
    host, port = server.address
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(payload)
        chunks = []
        try:
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                chunks.append(data)
        except socket.timeout:
            pass
    return b"".join(chunks)


def _parse_raw(raw: bytes):
    """Split one raw HTTP response into (status, headers, body)."""
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(None, 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


# ----------------------------------------------------------------------
# bugfix 1: malformed Content-Length → structured 400, not a dead socket
# ----------------------------------------------------------------------
def test_malformed_content_length_is_structured_400(server):
    raw = _raw_exchange(server, (
        b"POST /simulate HTTP/1.1\r\n"
        b"Host: t\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: abc\r\n"
        b"\r\n"
    ))
    status, headers, body = _parse_raw(raw)
    assert status == 400
    assert headers["content-type"] == "application/json"
    error = json.loads(body)["error"]
    assert error["type"] == "BadRequestError"
    assert "Content-Length" in error["message"]
    # The body was never framed: the server must close the connection.
    assert headers.get("connection") == "close"


@pytest.mark.parametrize("value", ["-5", "1e3", "0x10", "12abc", "\u00b2"])
def test_unparseable_content_length_variants(server, value):
    raw = _raw_exchange(server, (
        "POST /simulate HTTP/1.1\r\n"
        "Host: t\r\n"
        f"Content-Length: {value}\r\n"
        "\r\n"
    ).encode("latin-1"))
    status, _, body = _parse_raw(raw)
    assert status == 400, raw[:200]
    assert json.loads(body)["error"]["type"] == "BadRequestError"


def test_overlong_content_length_is_413_and_the_reactor_survives(server):
    # int() refuses more than 4,300 digits; the ValueError once escaped
    # into the reactor thread and the server stopped answering anyone.
    raw = _raw_exchange(server, (
        b"POST /simulate HTTP/1.1\r\nHost: t\r\n"
        b"Content-Length: " + b"9" * 5000 + b"\r\n\r\n"
    ))
    status, _, body = _parse_raw(raw)
    assert status == 413
    assert json.loads(body)["error"]["type"] == "RequestTooLargeError"
    status, _, _ = _parse_raw(
        _raw_exchange(server, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
    )
    assert status == 200


# ----------------------------------------------------------------------
# bugfix 2: duplicated query parameters → 400, not silent last-wins
# ----------------------------------------------------------------------
def test_duplicate_query_parameter_is_rejected(server):
    host, port = server.address
    connection = HTTPConnection(host, port, timeout=10)
    try:
        connection.request("GET", "/healthz?probe=1&probe=2")
        response = connection.getresponse()
        body = response.read()
        assert response.status == 400
        error = json.loads(body)["error"]
        assert error["type"] == "BadRequestError"
        assert "probe" in error["message"]
        # The request was fully consumed: keep-alive must survive a 400.
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        assert response.status == 200
        response.read()
    finally:
        connection.close()


def test_distinct_query_parameters_still_accepted(server):
    host, port = server.address
    connection = HTTPConnection(host, port, timeout=10)
    try:
        connection.request("GET", "/healthz?a=1&b=2")
        response = connection.getresponse()
        assert response.status == 200
        response.read()
    finally:
        connection.close()


# ----------------------------------------------------------------------
# bugfix 3: wildcard bind host must not leak into the advertised URL
# ----------------------------------------------------------------------
def test_wildcard_host_url_is_dialable():
    config = ServiceConfig(host="0.0.0.0", port=0, workers=0)
    with DDToolServer(config) as instance:
        assert "0.0.0.0" not in instance.url
        assert instance.url.startswith("http://127.0.0.1:")
        # The advertised URL must actually answer.
        host_port = instance.url[len("http://"):]
        host, port = host_port.rsplit(":", 1)
        connection = HTTPConnection(host, int(port), timeout=10)
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            response.read()
        finally:
            connection.close()


def test_explicit_host_is_preserved(server):
    assert server.url.startswith("http://127.0.0.1:")


# ----------------------------------------------------------------------
# bugfix 4: HEAD support (load-balancer probes), not 501 HTML
# ----------------------------------------------------------------------
def test_head_healthz_matches_get(server):
    host, port = server.address
    connection = HTTPConnection(host, port, timeout=10)
    try:
        connection.request("GET", "/healthz")
        get_response = connection.getresponse()
        get_body = get_response.read()
        assert get_response.status == 200

        connection.request("HEAD", "/healthz")
        head_response = connection.getresponse()
        head_body = head_response.read()
        assert head_response.status == 200
        assert head_body == b""
        assert head_response.getheader("Content-Type") == "application/json"
        # HEAD advertises the length GET would have sent.
        assert int(head_response.getheader("Content-Length")) == len(get_body)

        # The connection survives the body-less response.
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        assert response.status == 200
        response.read()
    finally:
        connection.close()


def test_head_unknown_path_is_404(server):
    host, port = server.address
    connection = HTTPConnection(host, port, timeout=10)
    try:
        connection.request("HEAD", "/no/such/path")
        response = connection.getresponse()
        assert response.status == 404
        assert response.read() == b""
    finally:
        connection.close()


# ----------------------------------------------------------------------
# keep-alive: many sequential requests on ONE socket
# ----------------------------------------------------------------------
def test_keep_alive_reuses_one_socket(server):
    host, port = server.address
    with socket.create_connection((host, port), timeout=10) as sock:
        reader = sock.makefile("rb")
        for index in range(5):
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            status_line = reader.readline()
            assert status_line.startswith(b"HTTP/1.1 200"), (index, status_line)
            length = None
            while True:
                line = reader.readline()
                if line in (b"\r\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            assert length is not None
            body = reader.read(length)
            assert json.loads(body)["status"] == "ok"


def test_pipelined_requests_on_one_socket(server):
    """Two requests written back-to-back both get answered, in order."""
    host, port = server.address
    request = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(request + request)
        reader = sock.makefile("rb")
        seen = 0
        for _ in range(2):
            status_line = reader.readline()
            assert status_line.startswith(b"HTTP/1.1 200"), status_line
            length = None
            while True:
                line = reader.readline()
                if line in (b"\r\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            reader.read(length)
            seen += 1
        assert seen == 2


# ----------------------------------------------------------------------
# /simulate/batch: NDJSON streamed per-job results
# ----------------------------------------------------------------------
def test_batch_mixed_jobs(server):
    host, port = server.address
    connection = HTTPConnection(host, port, timeout=30)
    try:
        jobs = [
            {"qasm": QFT, "shots": 4, "seed": 7},
            {"qasm": QFT, "shots": 4, "seed": 7},   # cache hit of job 0
            {"qasm": "not even qasm"},               # per-job parse error
        ]
        connection.request(
            "POST", "/simulate/batch",
            body=json.dumps({"jobs": jobs}).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        lines = [json.loads(line)
                 for line in response.read().decode().splitlines() if line]
    finally:
        connection.close()

    assert len(lines) == 3
    by_index = {entry["index"]: entry for entry in lines}
    assert set(by_index) == {0, 1, 2}
    assert by_index[0]["ok"] and by_index[0]["nodes"] > 0
    assert by_index[1]["ok"]
    # One of the two identical jobs must have hit the result cache.
    assert by_index[0]["cached"] or by_index[1]["cached"]
    assert not by_index[2]["ok"]
    # The unparseable circuit surfaces as a structured per-job error
    # (same shape as the one-shot endpoint's JSON error body).
    assert by_index[2]["error"]["type"] in ("ParseError", "BadRequestError")
    assert by_index[2]["error"]["message"]


def test_batch_envelope_errors(server):
    host, port = server.address
    connection = HTTPConnection(host, port, timeout=10)
    try:
        for payload, expected in (
            ({"jobs": []}, 400),
            ({"jobs": "nope"}, 400),
            ({}, 400),
            ({"jobs": [{"qasm": QFT}] * 9}, 413),  # batch_max_jobs=8
        ):
            connection.request(
                "POST", "/simulate/batch",
                body=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = response.read()
            assert response.status == expected, (payload, body)
            assert json.loads(body)["error"]["type"]
    finally:
        connection.close()


# ----------------------------------------------------------------------
# dispatch: a job takes whichever shard is free
# ----------------------------------------------------------------------
def test_batch_jobs_of_one_circuit_use_both_shards():
    config = ServiceConfig(host="127.0.0.1", port=0, workers=2)
    with DDToolServer(config) as instance:
        host, port = instance.address
        connection = HTTPConnection(host, port, timeout=60)
        try:
            jobs = [{"qasm": QFT, "shots": 4, "seed": seed} for seed in (1, 2)]
            connection.request(
                "POST", "/simulate/batch",
                body=json.dumps({"jobs": jobs}).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 200
            lines = [json.loads(line)
                     for line in response.read().decode().splitlines() if line]
            assert [entry["ok"] for entry in lines] == [True, True]
            assert not any(entry["cached"] for entry in lines)
            connection.request("GET", "/metrics")
            metrics = connection.getresponse().read().decode()
        finally:
            connection.close()
    for shard in ("0", "1"):
        assert f'service_shard_jobs_total{{shard="{shard}"}} 1' in metrics, metrics


# ----------------------------------------------------------------------
# graceful shutdown drains in-flight work on the reactor
# ----------------------------------------------------------------------
def test_eventloop_stop_completes_inflight_request():
    config = ServiceConfig(host="127.0.0.1", port=0, workers=0)
    instance = DDToolServer(config).start()
    host, port = instance.address
    connection = HTTPConnection(host, port, timeout=30)
    try:
        connection.request(
            "POST", "/simulate",
            body=json.dumps({"qasm": QFT, "shots": 4, "seed": 1}).encode(),
            headers={"Content-Type": "application/json"},
        )
        # Stop accepting while the request may still be in flight; the
        # reactor must keep the connection alive until it is answered.
        drained = []
        shutdown = threading.Thread(
            target=lambda: drained.append(instance.stop())
        )
        time.sleep(0.01)
        shutdown.start()
        response = connection.getresponse()
        assert response.status == 200
        response.read()
        shutdown.join(timeout=30)
        assert not shutdown.is_alive()
        # Every in-flight request and stream finished inside the timeout.
        assert drained == [True]
    finally:
        connection.close()
