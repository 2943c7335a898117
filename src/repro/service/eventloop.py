"""The service's HTTP transport: a non-blocking ``selectors`` reactor.

A thread per connection caps out at a few hundred concurrent clients:
every open socket costs a thread, and a slow or idle client pins one
forever.  This module holds *all* connections on a single readiness-
driven event loop instead:

* **accept/read/write are non-blocking** — one reactor thread multiplexes
  every socket through :class:`selectors.DefaultSelector` (epoll on
  Linux), so thousands of idle keep-alive connections cost a few kB each,
  not a thread each;
* **HTTP parsing is incremental** — bytes accumulate in a per-connection
  :class:`HTTPParser` until a full request is framed, so a trickling
  client never blocks anyone;
* **handlers run on a small bounded thread pool** — the reactor never
  calls :meth:`ServiceApp.handle` itself (handlers block on session locks
  and worker shards); completed responses are handed back to the loop
  over a self-pipe and written with readiness-driven, backpressure-aware
  buffering;
* **streaming responses get a pump thread each** — SSE and NDJSON bodies
  are produced by blocking generators; each open stream (already bounded
  by ``ServiceConfig.max_streams``) is pumped into the connection's write
  buffer and pauses whenever the buffer is above the high watermark, so
  one slow subscriber buffers kilobytes, not the whole event history.

Malformed framing (an unparseable ``Content-Length``, duplicated query
parameters, oversized heads or bodies) is answered with the same
structured JSON error body :class:`ServiceApp` produces for application
errors.
"""

from __future__ import annotations

import json
import queue
import selectors
import socket
import threading
import time
from http.client import responses as _HTTP_REASONS
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.service.app import Request, Response, ServiceApp, StreamingResponse

__all__ = ["HTTPParser", "ParsedRequest", "SelectorFrontEnd", "display_host"]

#: Bytes read per ``recv`` call on a readable socket.
RECV_SIZE = 1 << 16
#: Largest accepted request head (request line + headers).
MAX_HEAD_BYTES = 1 << 15
#: Write buffer size above which streaming producers pause.
HIGH_WATERMARK = 1 << 20
#: Write buffer size below which paused producers resume.
LOW_WATERMARK = 1 << 16
#: Hosts that mean "every interface" and are unconnectable as a client URL.
_WILDCARD_HOSTS = ("", "0.0.0.0", "::", "0:0:0:0:0:0:0:0")


class ProtocolError(Exception):
    """A malformed or unserviceable request detected at the HTTP layer.

    Carries everything a transport needs to emit the same structured JSON
    error body that :class:`ServiceApp` produces for application errors.
    """

    def __init__(self, status: int, error_type: str, message: str,
                 close: bool = True):
        super().__init__(message)
        self.status = status
        self.error_type = error_type
        self.message = message
        #: Whether the connection must be closed after responding (the
        #: framing is unrecoverable, e.g. an unparseable Content-Length).
        self.close = close


def error_body(error_type: str, message: str, status: int) -> bytes:
    """The service's structured JSON error payload, as bytes."""
    return json.dumps(
        {"error": {"type": error_type, "message": message, "status": status}}
    ).encode()


def parse_content_length(raw: Optional[str]) -> int:
    """Parse a ``Content-Length`` header value; 400 on anything malformed.

    A missing or empty header means "no body".  Anything that is not a
    plain non-negative decimal integer raises :class:`ProtocolError`
    instead of :class:`ValueError` — a malformed header must produce a
    structured 400, not kill the connection without a response.  A value
    of more than 18 significant digits exceeds any body limit (and
    ``int()`` refuses strings of more than 4,300 digits): 413.
    """
    if raw is None or raw.strip() == "":
        return 0
    value = raw.strip()
    # ASCII only: str.isdigit() also accepts digits such as "²" that int()
    # rejects.  Rejects signs, floats, hex and text.
    if not (value.isascii() and value.isdigit()):
        raise ProtocolError(
            400, "BadRequestError",
            f"invalid Content-Length header: {raw[:64]!r}",
        )
    value = value.lstrip("0") or "0"
    if len(value) > 18:
        raise ProtocolError(
            413, "RequestTooLargeError",
            f"Content-Length of {len(value)} digits exceeds the body limit",
        )
    return int(value)


def parse_query_strict(raw_query: str) -> Dict[str, str]:
    """Parse a query string, rejecting repeated parameters with a 400.

    ``dict(parse_qsl(...))`` silently keeps only the *last* occurrence of
    a repeated parameter, which breaks e.g. ``?last_event_id=`` resume
    semantics when a proxy duplicates parameters; ambiguity is an error
    the client should see.
    """
    query: Dict[str, str] = {}
    for key, value in parse_qsl(raw_query):
        if key in query:
            raise ProtocolError(
                400, "BadRequestError",
                f"duplicate query parameter {key!r}", close=False,
            )
        query[key] = value
    return query


def display_host(host: str) -> str:
    """Map wildcard bind addresses to a loopback address clients can dial.

    ``http://0.0.0.0:8137`` is a valid *bind* address but not a valid
    *connect* address; smoke scripts and copy-pasted URLs need loopback.
    """
    return "127.0.0.1" if host in _WILDCARD_HOSTS else host


class ParsedRequest:
    """One fully framed HTTP request, as produced by :class:`HTTPParser`."""

    __slots__ = ("method", "target", "headers", "body", "keep_alive")

    def __init__(self, method: str, target: str, headers: Dict[str, str],
                 body: bytes, keep_alive: bool):
        self.method = method
        self.target = target
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive


class HTTPParser:
    """An incremental HTTP/1.x request parser for one connection.

    ``feed()`` appends raw bytes; ``next_request()`` returns a
    :class:`ParsedRequest` once one is fully buffered, ``None`` while
    more bytes are needed, and raises :class:`ProtocolError` on malformed
    input.  Pipelined bytes beyond the first request simply stay in the
    buffer for the next call.
    """

    def __init__(self, max_body_bytes: int):
        self.max_body_bytes = max_body_bytes
        self._buffer = bytearray()
        # Head of the request currently being framed (None = not parsed yet).
        self._head: Optional[Tuple[str, str, Dict[str, str], int, bool]] = None

    def feed(self, data: bytes) -> None:
        self._buffer += data

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    def next_request(self) -> Optional[ParsedRequest]:
        if self._head is None and not self._parse_head():
            return None
        method, target, headers, length, keep_alive = self._head
        if len(self._buffer) < length:
            return None  # body still arriving
        body = bytes(self._buffer[:length])
        del self._buffer[:length]
        self._head = None
        return ParsedRequest(method, target, headers, body, keep_alive)

    # ------------------------------------------------------------------
    # head framing
    # ------------------------------------------------------------------
    def _parse_head(self) -> bool:
        end = self._buffer.find(b"\r\n\r\n")
        if end < 0:
            if len(self._buffer) > MAX_HEAD_BYTES:
                raise ProtocolError(
                    431, "BadRequestError",
                    f"request head exceeds {MAX_HEAD_BYTES} bytes",
                )
            return False
        head = bytes(self._buffer[:end])
        del self._buffer[:end + 4]
        try:
            text = head.decode("iso-8859-1")
        except UnicodeDecodeError:  # pragma: no cover - latin-1 never fails
            raise ProtocolError(400, "BadRequestError", "undecodable head")
        lines = text.split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise ProtocolError(
                400, "BadRequestError",
                f"malformed request line: {lines[0]!r}",
            )
        method, target, version = parts
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep or not name.strip():
                raise ProtocolError(
                    400, "BadRequestError", f"malformed header line: {line!r}"
                )
            key = name.strip().lower()
            value = value.strip()
            if key == "content-length" and key in headers \
                    and headers[key] != value:
                raise ProtocolError(
                    400, "BadRequestError",
                    "conflicting Content-Length headers",
                )
            headers[key] = value
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise ProtocolError(
                400, "BadRequestError",
                "chunked request bodies are not supported; "
                "send a Content-Length",
            )
        length = parse_content_length(headers.get("content-length"))
        if length > self.max_body_bytes:
            # Refuse to buffer it; the unread remainder would poison the
            # connection, so the transport must close after responding.
            raise ProtocolError(
                413, "RequestTooLargeError",
                f"request body of {length} bytes exceeds the "
                f"{self.max_body_bytes}-byte limit",
            )
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.0":
            keep_alive = "keep-alive" in connection
        else:
            keep_alive = "close" not in connection
        self._head = (method, target, headers, length, keep_alive)
        return True


def build_request(parsed: ParsedRequest, client: str) -> Request:
    """Map a framed HTTP request onto the app's transport-free Request.

    Raises :class:`ProtocolError` for duplicate query parameters.
    """
    split = urlsplit(parsed.target)
    return Request(
        method=parsed.method,
        path=split.path,
        query=parse_query_strict(split.query),
        body=parsed.body,
        client=client,
        headers=parsed.headers,
    )


class _Connection:
    """Reactor-side state of one client socket.

    Only the reactor thread mutates the selector registration and the
    write buffer; producer threads communicate through the completion
    queue.  ``drained`` is the backpressure signal for stream pumps.
    """

    __slots__ = (
        "sock", "fd", "client", "parser", "out", "mask", "busy",
        "streaming", "closed", "close_after_write", "drained",
    )

    def __init__(self, sock: socket.socket, client: str, max_body_bytes: int):
        self.sock = sock
        self.fd = sock.fileno()
        self.client = client
        self.parser = HTTPParser(max_body_bytes)
        self.out = bytearray()
        self.mask = 0          # current selector registration
        self.busy = False      # a request is being handled
        self.streaming = False
        self.closed = False
        self.close_after_write = False
        self.drained = threading.Event()
        self.drained.set()


class _ConnectionGone(Exception):
    """Raised inside a stream pump when the client disappeared."""


class SelectorFrontEnd:
    """The event-loop HTTP server: reactor + handler pool + stream pumps."""

    def __init__(
        self,
        app: ServiceApp,
        host: str,
        port: int,
        handler_threads: int = 0,
        verbose: bool = False,
        backlog: int = 1024,
    ):
        self.app = app
        self.verbose = verbose
        if handler_threads <= 0:
            # Enough to keep every worker shard busy plus headroom for the
            # fast in-process endpoints (sessions, metrics, cache hits).
            handler_threads = max(8, 2 * app.config.workers + 4)
        self.handler_threads = handler_threads
        self._listener = socket.create_server(
            (host, port), reuse_port=False, backlog=backlog
        )
        self._listener.setblocking(False)
        self.server_address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        # Self-pipe: producer threads wake the reactor after queueing work.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, None)
        self._completions: "queue.SimpleQueue" = queue.SimpleQueue()
        self._jobs: "queue.SimpleQueue" = queue.SimpleQueue()
        self._conns: Dict[int, _Connection] = {}
        self._accepting = True
        self._terminate = threading.Event()
        self._stopped = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._handlers: List[threading.Thread] = []
        self._date_stamp: Tuple[int, str] = (0, "")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SelectorFrontEnd":
        """Start the reactor and the handler pool (idempotent)."""
        if self._thread is not None:
            return self
        for index in range(self.handler_threads):
            thread = threading.Thread(
                target=self._handler_loop, name=f"qdd-handler-{index}",
                daemon=True,
            )
            thread.start()
            self._handlers.append(thread)
        self._thread = threading.Thread(
            target=self._run, name="qdd-eventloop", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Start (if needed) and block until :meth:`shutdown` is called."""
        self.start()
        self._stopped.wait()

    def shutdown(self) -> None:
        """Stop accepting new connections; in-flight work continues.

        The reactor keeps running so queued responses and open streams can
        still be written — pair with :meth:`close` after draining.
        """
        self._accepting = False
        self._completions.put(("stop_accepting",))
        self._wake()
        self._stopped.set()

    def close(self) -> None:
        """Terminate the reactor, close every connection, reap the pool."""
        self.shutdown()
        self._terminate.set()
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        for _ in self._handlers:
            self._jobs.put(None)
        for thread in self._handlers:
            thread.join(timeout=2.0)
        self._handlers = []
        for conn in list(self._conns.values()):
            conn.closed = True
            conn.drained.set()
            try:
                conn.sock.close()
            except OSError:  # pragma: no cover - already gone
                pass
        self._conns.clear()
        for sock in (self._listener, self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
        try:
            self._selector.close()
        except (OSError, RuntimeError):  # pragma: no cover
            pass

    # ------------------------------------------------------------------
    # reactor
    # ------------------------------------------------------------------
    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except (BlockingIOError, OSError):
            pass  # pipe full or closing: the loop is awake anyway

    def _run(self) -> None:
        while not self._terminate.is_set():
            try:
                events = self._selector.select(timeout=0.5)
            except OSError:  # pragma: no cover - selector torn down
                break
            for key, mask in events:
                if key.fileobj is self._listener:
                    self._accept()
                elif key.fileobj is self._wake_r:
                    self._drain_wake_pipe()
                else:
                    conn: _Connection = key.data
                    if conn.closed:
                        continue
                    if mask & selectors.EVENT_READ:
                        self._on_readable(conn)
                    if mask & selectors.EVENT_WRITE and not conn.closed:
                        self._on_writable(conn)
            self._process_completions()

    def _accept(self) -> None:
        while self._accepting:
            try:
                sock, addr = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:  # listener closed or EMFILE
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - non-TCP socket family
                pass
            conn = _Connection(
                sock, addr[0] if addr else "", self.app.config.max_body_bytes
            )
            self._conns[conn.fd] = conn
            self._set_mask(conn, selectors.EVENT_READ)

    def _drain_wake_pipe(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:  # pragma: no cover - closing
            pass

    def _set_mask(self, conn: _Connection, mask: int) -> None:
        if conn.closed or conn.mask == mask:
            return
        if conn.mask == 0:
            self._selector.register(conn.sock, mask, conn)
        elif mask == 0:
            self._selector.unregister(conn.sock)
        else:
            self._selector.modify(conn.sock, mask, conn)
        conn.mask = mask

    def _close_conn(self, conn: _Connection) -> None:
        if conn.closed:
            return
        self._set_mask(conn, 0)
        conn.closed = True
        conn.drained.set()  # release any pump blocked on backpressure
        self._conns.pop(conn.fd, None)
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover - already gone
            pass

    # -- reading -------------------------------------------------------
    def _on_readable(self, conn: _Connection) -> None:
        try:
            data = conn.sock.recv(RECV_SIZE)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_conn(conn)
            return
        if not data:
            self._close_conn(conn)
            return
        conn.parser.feed(data)
        self._advance(conn)

    def _advance(self, conn: _Connection) -> None:
        """Frame and dispatch the next request, if fully buffered."""
        if conn.busy or conn.closed:
            return
        try:
            parsed = conn.parser.next_request()
        except ProtocolError as error:
            self._respond_error(conn, error)
            return
        if parsed is None:
            self._set_mask(conn, selectors.EVENT_READ)
            return
        # One request in flight per connection: reading pauses until the
        # response is written (pipelined bytes wait in the parser buffer).
        conn.busy = True
        self._set_mask(conn, 0)
        try:
            request = build_request(parsed, conn.client)
        except ProtocolError as error:
            self._respond_error(conn, error, keep_alive=parsed.keep_alive)
            return
        self._jobs.put((conn, parsed, request))

    def _respond_error(self, conn: _Connection, error: ProtocolError,
                       keep_alive: bool = False) -> None:
        body = error_body(error.error_type, error.message, error.status)
        close = error.close or not keep_alive
        head = self._head_bytes(
            error.status, "application/json", {}, content_length=len(body),
            close=close,
        )
        conn.busy = True
        conn.out += head + body
        conn.close_after_write = close
        conn.streaming = False
        self._set_mask(conn, selectors.EVENT_WRITE)

    # -- handler pool --------------------------------------------------
    def _handler_loop(self) -> None:
        while True:
            item = self._jobs.get()
            if item is None:
                return
            conn, parsed, request = item
            try:
                response = self.app.handle(request)
            except Exception as error:  # noqa: BLE001 - app.handle catches;
                # this is a last-resort guard so a handler thread never dies.
                response = Response.json(
                    {"error": {"type": type(error).__name__,
                               "message": str(error), "status": 500}},
                    status=500,
                )
            self._completions.put(("response", conn, parsed, response))
            self._wake()

    # -- completions (reactor thread) ----------------------------------
    def _process_completions(self) -> None:
        while True:
            try:
                item = self._completions.get_nowait()
            except queue.Empty:
                return
            kind = item[0]
            if kind == "stop_accepting":
                try:
                    self._selector.unregister(self._listener)
                except (KeyError, ValueError, OSError):
                    pass
                try:
                    self._listener.close()
                except OSError:  # pragma: no cover
                    pass
            elif kind == "response":
                _, conn, parsed, response = item
                self._begin_response(conn, parsed, response)
            elif kind == "chunk":
                _, conn, data = item
                if not conn.closed:
                    conn.out += data
                    self._set_mask(conn, selectors.EVENT_WRITE)
            elif kind == "stream_end":
                _, conn = item
                if conn.closed:
                    continue
                conn.streaming = False
                if conn.out:
                    self._set_mask(conn, selectors.EVENT_WRITE)
                else:
                    self._close_conn(conn)

    def _begin_response(self, conn: _Connection, parsed: ParsedRequest,
                        response) -> None:
        if conn.closed:
            if isinstance(response, StreamingResponse):
                response.close()
            return
        head_only = parsed.method == "HEAD"
        if isinstance(response, StreamingResponse):
            if head_only:
                # A HEAD of a streaming endpoint answers with the stream's
                # status and headers but no body; nothing meaningful can be
                # resumed, so the connection closes, as after every stream.
                response.close()
                conn.out += self._head_bytes(
                    response.status, response.content_type, response.headers,
                    content_length=0, close=True,
                )
                conn.close_after_write = True
                self._set_mask(conn, selectors.EVENT_WRITE)
                return
            conn.out += self._head_bytes(
                response.status, response.content_type, response.headers,
                chunked=True, close=True,
            )
            conn.streaming = True
            conn.close_after_write = True
            self._set_mask(conn, selectors.EVENT_WRITE)
            pump = threading.Thread(
                target=self._pump_stream, args=(conn, response),
                name="qdd-stream-pump", daemon=True,
            )
            pump.start()
            return
        body = b"" if head_only else response.body
        conn.out += self._head_bytes(
            response.status, response.content_type, response.headers,
            content_length=len(response.body), close=not parsed.keep_alive,
        )
        conn.out += body
        conn.close_after_write = not parsed.keep_alive
        self._set_mask(conn, selectors.EVENT_WRITE)

    # -- writing -------------------------------------------------------
    def _on_writable(self, conn: _Connection) -> None:
        try:
            sent = conn.sock.send(memoryview(conn.out)[:RECV_SIZE])
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_conn(conn)
            return
        del conn.out[:sent]
        if len(conn.out) <= LOW_WATERMARK:
            conn.drained.set()
        if conn.out:
            return
        if conn.streaming:
            # Stream pumps refill the buffer; stop polling writability so
            # an idle stream does not spin the loop.
            self._set_mask(conn, 0)
            return
        if conn.close_after_write:
            self._close_conn(conn)
            return
        conn.busy = False
        self._set_mask(conn, selectors.EVENT_READ)
        if conn.parser.buffered:
            self._advance(conn)  # a pipelined request is already waiting

    # -- streaming pump (one thread per open stream) --------------------
    def _stream_send(self, conn: _Connection, data: bytes) -> None:
        if conn.closed:
            raise _ConnectionGone()
        self._completions.put(("chunk", conn, data))
        self._wake()
        while len(conn.out) > HIGH_WATERMARK:
            if conn.closed:
                raise _ConnectionGone()
            conn.drained.clear()
            conn.drained.wait(timeout=0.5)

    def _pump_stream(self, conn: _Connection, response: StreamingResponse) -> None:
        try:
            for chunk in response.chunks:
                if not chunk:
                    continue
                frame = b"%x\r\n" % len(chunk) + chunk + b"\r\n"
                self._stream_send(conn, frame)
            self._stream_send(conn, b"0\r\n\r\n")
        except _ConnectionGone:
            pass
        finally:
            response.close()
            self._completions.put(("stream_end", conn))
            self._wake()

    # -- response heads -------------------------------------------------
    def _date_header(self) -> str:
        now = int(time.time())
        if self._date_stamp[0] != now:
            from email.utils import formatdate

            self._date_stamp = (now, formatdate(now, usegmt=True))
        return self._date_stamp[1]

    def _head_bytes(
        self,
        status: int,
        content_type: str,
        headers: Dict[str, str],
        content_length: Optional[int] = None,
        chunked: bool = False,
        close: bool = False,
    ) -> bytes:
        reason = _HTTP_REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            "Server: qdd-service/1.0",
            f"Date: {self._date_header()}",
            f"Content-Type: {content_type}",
        ]
        if chunked:
            lines.append("Transfer-Encoding: chunked")
        else:
            lines.append(f"Content-Length: {content_length or 0}")
        for name, value in headers.items():
            lines.append(f"{name}: {value}")
        lines.append(f"Connection: {'close' if close else 'keep-alive'}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("iso-8859-1")
