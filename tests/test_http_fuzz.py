"""Seeded mutation fuzzer for the reactor's HTTP parser (standard library only).

Valid request streams are mutated by splicing in bytes, truncating,
duplicating header lines and corrupting ``Content-Length``, then fed to
:class:`~repro.service.eventloop.HTTPParser` split at random points across
``feed`` calls.  Each ``next_request()`` must return a
:class:`~repro.service.eventloop.ParsedRequest` or ``None``, or raise
:class:`~repro.service.eventloop.ProtocolError` with a 4xx status, within
``PER_INPUT_SECONDS``; any other exception fails the test, as does a
slower input.  A short live leg sends mutated streams to a running server:
each gets the structured 4xx the parser predicts or a valid response, and
``/healthz`` still answers afterwards.

The base seed rotates in CI (``HTTP_FUZZ_SEED``); reproduce a failure with
``HTTP_FUZZ_SEED=<seed> python -m pytest tests/test_http_fuzz.py``.
"""

import json
import os
import random
import socket
import time
from http.client import HTTPConnection

import pytest

from repro.qc import library
from repro.service import DDToolServer, ServiceConfig
from repro.service.eventloop import (
    HTTPParser,
    ParsedRequest,
    ProtocolError,
    build_request,
)

BASE_SEED = int(os.environ.get("HTTP_FUZZ_SEED", "0"))
PER_INPUT_SECONDS = 2.0
INPUTS_PER_STREAM = 150
LIVE_INPUTS = 12
MAX_BODY_BYTES = 1 << 20

_BELL = library.bell_pair().to_qasm()


def _post(path, payload, extra=b""):
    body = json.dumps(payload).encode()
    return (
        f"POST {path} HTTP/1.1\r\nHost: fuzz\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n".encode()
        + extra
        + b"\r\n"
        + body
    )


#: Valid request streams the mutations start from.
STREAMS = (
    b"GET /healthz HTTP/1.1\r\nHost: fuzz\r\n\r\n",
    b"HEAD /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
    b"GET /metrics?format=json HTTP/1.1\r\nHost: fuzz\r\nAccept: */*\r\n\r\n",
    _post("/simulate", {"qasm": _BELL, "shots": 16}),
    _post("/verify", {"left": _BELL, "right": _BELL}, b"Connection: close\r\n"),
    # Two pipelined requests on one connection.
    b"GET /healthz HTTP/1.1\r\nHost: fuzz\r\n\r\n"
    + _post("/simulate", {"qasm": _BELL}),
)

#: Byte strings spliced into a stream.
FRAGMENTS = (
    b"\r\n", b"\r\n\r\n", b"\n", b":", b" ", b"\t", b"\x00", b"\xff", b"\xb2",
    b"\xb9", b"0", b"9", b"-", b"+", b"e3", b"0x", b"HTTP/1.1", b"HTTP/2",
    b"GET ", b"?a=1&a=2", b"Content-Length: ", b"Transfer-Encoding: chunked",
    b"Connection: close", b"Connection: keep-alive", b"{", b"}", b'"',
)

#: Replacement ``Content-Length`` values.
LENGTHS = (
    b"", b"0", b"1", b"-1", b"+5", b"1e3", b"0x10", b"abc", b"\xb2", b"\xb9",
    b"00000000000000000000000000000007", b"9" * 30, b"9" * 5000,
    str(MAX_BODY_BYTES + 1).encode(), b"12 34", b" 5 ",
)


def _head_lines(stream):
    """Indices of the header lines of the first request in ``stream``."""
    head = stream.split(b"\r\n\r\n", 1)[0]
    return len(head.split(b"\r\n"))


def mutate(stream, rng, edits=3):
    """``stream`` with 1..``edits`` splices, truncations, duplicated header
    lines or corrupted ``Content-Length`` values."""
    for _ in range(rng.randint(1, edits)):
        choice = rng.random()
        position = rng.randint(0, len(stream))
        if choice < 0.3:
            stream = stream[:position] + rng.choice(FRAGMENTS) + stream[position:]
        elif choice < 0.45:
            span = rng.randint(1, 16)
            stream = stream[:position] + stream[position + span:]
        elif choice < 0.55:
            stream = stream[:position]
        elif choice < 0.75:
            head, sep, rest = stream.partition(b"\r\n\r\n")
            lines = head.split(b"\r\n")
            index = rng.randrange(len(lines))
            lines.insert(index, lines[index])
            stream = b"\r\n".join(lines) + sep + rest
        else:
            marker = b"Content-Length:"
            start = stream.find(marker)
            if start < 0:
                head, sep, rest = stream.partition(b"\r\n\r\n")
                stream = head + b"\r\n" + marker + b" " + rng.choice(LENGTHS) + sep + rest
                continue
            end = stream.find(b"\r\n", start)
            end = len(stream) if end < 0 else end
            stream = (
                stream[:start + len(marker)] + b" " + rng.choice(LENGTHS)
                + stream[end:]
            )
    return stream


def split(stream, rng):
    """``stream`` cut into 1..6 chunks at random points."""
    cuts = sorted(rng.randint(0, len(stream)) for _ in range(rng.randint(0, 5)))
    bounds = [0] + cuts + [len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


def parse_stream(chunks):
    """Feed ``chunks`` to a fresh parser, framing requests as the reactor
    does; returns the parsed requests and the terminating ``ProtocolError``
    (``None`` when the stream ends without one)."""
    parser = HTTPParser(MAX_BODY_BYTES)
    requests = []
    for chunk in chunks:
        parser.feed(chunk)
        while True:
            try:
                parsed = parser.next_request()
                if parsed is None:
                    break
                assert isinstance(parsed, ParsedRequest), parsed
                build_request(parsed, "fuzz")
            except ProtocolError as error:
                return requests, error
            requests.append(parsed)
    return requests, None


def _check(chunks, label):
    start = time.perf_counter()
    try:
        _requests, error = parse_stream(chunks)
    except Exception as error:  # anything but ProtocolError is a parser bug
        pytest.fail(
            f"{label}: {type(error).__name__}: {error}; input {b''.join(chunks)!r}"
        )
    elapsed = time.perf_counter() - start
    shown = b"".join(chunks)[:300]
    assert elapsed < PER_INPUT_SECONDS, f"{label}: {elapsed:.2f} s; input {shown!r}"
    if error is not None:
        assert 400 <= error.status < 500, f"{label}: status {error.status}; {shown!r}"


def test_valid_streams_parse():
    for stream in STREAMS:
        requests, error = parse_stream([stream])
        assert error is None and requests, stream


def test_mutated_streams_frame_or_raise_a_4xx():
    for number, stream in enumerate(STREAMS):
        rng = random.Random(BASE_SEED * 1_000_003 + number)
        for index in range(INPUTS_PER_STREAM):
            chunks = split(mutate(stream, rng), rng)
            _check(chunks, f"HTTP_FUZZ_SEED={BASE_SEED}, stream {number}, input {index}")


@pytest.fixture(scope="module")
def server():
    config = ServiceConfig(host="127.0.0.1", port=0, workers=0, cache_capacity=16)
    instance = DDToolServer(config).start()
    yield instance
    instance.stop()


def _exchange(server, payload):
    """Send ``payload``, half-close, and read until the server closes."""
    with socket.create_connection(server.address, timeout=10) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                return b"".join(chunks)
            chunks.append(data)


def test_live_server_answers_mutated_streams(server):
    rng = random.Random(BASE_SEED * 1_000_003 + 777)
    for index in range(LIVE_INPUTS):
        stream = mutate(rng.choice(STREAMS), rng)
        label = f"HTTP_FUZZ_SEED={BASE_SEED}, live input {index}: {stream[:300]!r}"
        requests, error = parse_stream([stream])
        raw = _exchange(server, stream)
        if not requests and error is None:
            assert raw == b"", label  # an incomplete request gets no answer
            continue
        head, _, body = raw.partition(b"\r\n\r\n")
        status_line = head.split(b"\r\n", 1)[0].split()
        assert status_line[:1] in ([b"HTTP/1.1"], [b"HTTP/1.0"]), label
        status = int(status_line[1])
        if not requests:
            assert status == error.status, label
            assert json.loads(body)["error"]["status"] == status, label
        else:
            assert status < 500, label
    connection = HTTPConnection(*server.address, timeout=10)
    try:
        connection.request("GET", "/healthz")
        assert connection.getresponse().status == 200
    finally:
        connection.close()
