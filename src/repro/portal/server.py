"""The production serving tier: a threaded HTTP/1.1 server for the portal.

``wsgiref`` got the portal off the ground, but it is single-threaded,
unbounded, and keep-alive-free — the one tier of the system that could
not scale.  This module replaces it with a small, stdlib-only server
built from three cooperating parts:

**Accept loop** — one thread accepts connections and hands them to the
*parker*.  Nothing else ever blocks on ``accept()``.

**Parker** — one thread multiplexing every connection that is not
currently being served.  It ``select()``\\ s over parked sockets; the
moment one turns readable it moves to the bounded work queue, and a
connection idle past the keep-alive timeout is closed.  Parking is what
lets a small worker pool serve many keep-alive clients: an idle
connection costs a file descriptor, never a thread.

**Workers** — a fixed pool pulling readable connections off the queue.
A worker reads exactly one request (bounded: request line ≤ 8 KiB,
headers ≤ 64 KiB, body ≤ 10 MiB, chunked bodies refused with ``501``),
runs the WSGI application, writes the response, and re-parks the
connection.  Workers therefore only ever block on a socket that already
has data — never on an idle client.

Admission control happens at three rungs, all shedding with
``503 + Retry-After`` rather than queueing unboundedly:

1. *queue* — the work queue is bounded; a readable connection (or a
   fresh accept) that finds it full is answered 503 and closed.
2. *inflight* — a global gate on concurrently executing application
   requests (``--max-inflight``); past it, the request is answered 503
   without touching the application.  The connection survives.
3. *route* — optional per-route concurrency limits for endpoints that
   are expensive by construction (bulk exports, reports).

Graceful drain (:meth:`PortalServer.shutdown`): the listener closes
first (no new connections), parked idle connections are closed, and
workers finish the requests they already started before exiting — an
in-flight response is never truncated.
"""

from __future__ import annotations

import io
import queue
import select
import socket
import threading
import time
from typing import Callable

MAX_REQUEST_LINE = 8192
MAX_HEADER_BYTES = 65536
MAX_BODY_BYTES = 10 * 1024 * 1024

#: Seconds a worker will wait for the rest of a request that has
#: started arriving (slowloris bound); distinct from the keep-alive
#: idle timeout, which is enforced by the parker.
IO_TIMEOUT = 10.0

_REASONS = {
    200: "OK", 303: "See Other", 304: "Not Modified", 400: "Bad Request",
    401: "Unauthorized", 403: "Forbidden", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    411: "Length Required", 413: "Payload Too Large",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
    501: "Not Implemented", 503: "Service Unavailable",
}

_STATUS_LINES = {
    status: f"HTTP/1.1 {status} {reason}" for status, reason in _REASONS.items()
}

#: Shared sink for ``wsgi.errors`` — nothing in the portal writes to it,
#: so one instance per server beats one allocation per request.
_WSGI_ERRORS = io.StringIO()


class _BadRequest(Exception):
    """A protocol violation the server answers itself (no WSGI run)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _Connection:
    """One client connection: socket + read buffer + keep-alive state.

    The buffer matters for parking: a pipelined request may already sit
    in it after a response is written, in which case the connection must
    go straight back onto the work queue — ``select()`` on the bare
    socket would never fire for bytes we already consumed.
    """

    __slots__ = ("sock", "addr", "buffer", "served", "deadline")

    def __init__(self, sock: socket.socket, addr):
        self.sock = sock
        self.addr = addr
        self.buffer = bytearray()
        #: Requests completed on this connection (keep-alive reuse
        #: shows as ``served > 0`` when the next one starts).
        self.served = 0
        #: Idle cutoff while parked; maintained by the parker.
        self.deadline = 0.0

    # -- bounded reads -----------------------------------------------------

    def _fill(self) -> bool:
        """Pull one chunk into the buffer; False on EOF."""
        chunk = self.sock.recv(65536)
        if not chunk:
            return False
        self.buffer.extend(chunk)
        return True

    def read_head(self, limit: int) -> "bytes | None":
        """The request head (request line + headers) in one gulp.

        Reads through the blank-line terminator and returns everything
        before it; one buffer search per fill beats a per-line loop on
        the hot path.  ``None`` means clean EOF before any byte — the
        client closed an idle connection, which is not an error.
        """
        while True:
            index = self.buffer.find(b"\r\n\r\n")
            if index != -1:
                if index + 4 > limit:
                    raise _BadRequest(431, "header section too large")
                head = bytes(self.buffer[:index])
                del self.buffer[: index + 4]
                return head
            if len(self.buffer) > limit:
                raise _BadRequest(431, "header section too large")
            if not self._fill():
                if self.buffer:
                    raise _BadRequest(400, "truncated request")
                return None

    def read_exact(self, count: int) -> bytes:
        while len(self.buffer) < count:
            if not self._fill():
                raise _BadRequest(400, "truncated body")
        body = bytes(self.buffer[:count])
        del self.buffer[:count]
        return body

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class PortalServer:
    """Threaded HTTP/1.1 host for any WSGI application.

    ``port=0`` binds an ephemeral port (see :attr:`port` after
    :meth:`start`), which is how tests and the bench run fleets of
    servers without colliding.
    """

    def __init__(
        self,
        app: Callable,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        workers: int = 8,
        max_inflight: int = 64,
        keep_alive: float = 5.0,
        queue_depth: "int | None" = None,
        route_limits: "dict[str, int] | None" = None,
        obs=None,
    ):
        self.app = app
        self.host = host
        self.workers = max(1, int(workers))
        self.max_inflight = max(1, int(max_inflight))
        self.keep_alive = float(keep_alive)
        self._keep_alive_header = (
            f"Keep-Alive: timeout={max(1, int(self.keep_alive))}"
        )
        self._queue: "queue.Queue[_Connection | None]" = queue.Queue(
            maxsize=queue_depth if queue_depth is not None else 2 * self.workers
        )
        self._route_gates = {
            route: threading.Semaphore(limit)
            for route, limit in (route_limits or {}).items()
        }
        self._inflight = threading.Semaphore(self.max_inflight)
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._mu = threading.Lock()
        self._parked: dict[socket.socket, _Connection] = {}
        self._active: set[_Connection] = set()
        self._inflight_count = 0
        # Self-pipe so the accept thread can wake the parker the moment
        # it registers a connection (instead of waiting out a select tick).
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self.port = self._listener.getsockname()[1]
        self._init_metrics(obs)

    def _init_metrics(self, obs) -> None:
        self.obs = obs
        if obs is None:
            system = getattr(self.app, "system", None)
            self.obs = getattr(system, "obs", None)
        if self.obs is not None:
            metrics = self.obs.metrics
            self._g_connections = metrics.gauge(
                "http_server_connections", "Open portal connections"
            )
            self._g_inflight = metrics.gauge(
                "http_server_inflight", "Requests currently executing"
            )
            self._m_shed = metrics.counter(
                "http_server_shed_total",
                "Requests shed by admission control",
                labels=("reason",),
            )
            self._m_reuse = metrics.counter(
                "http_server_keepalive_reuse_total",
                "Requests served on a reused keep-alive connection",
            )
        else:
            self._g_connections = self._g_inflight = None
            self._m_shed = self._m_reuse = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "PortalServer":
        """Bind threads and return immediately (tests, embedding)."""
        self._listener.listen(128)
        self._listener.settimeout(0.5)
        acceptor = threading.Thread(
            target=self._accept_loop, name="portal-accept", daemon=True
        )
        parker = threading.Thread(
            target=self._park_loop, name="portal-park", daemon=True
        )
        self._threads = [acceptor, parker]
        for index in range(self.workers):
            self._threads.append(threading.Thread(
                target=self._worker_loop, name=f"portal-worker-{index}",
                daemon=True,
            ))
        for thread in self._threads:
            thread.start()
        return self

    def serve_forever(self) -> None:
        """:meth:`start` then block until :meth:`shutdown` (the CLI path)."""
        if not self._threads:
            self.start()
        self._stop.wait()

    def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, close idle."""
        self._stop.set()
        try:
            # Wakes the acceptor now rather than at its next 0.5 s poll.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        try:
            self._wake_w.sendall(b"x")  # kick the parker out of select()
        except OSError:
            pass
        for _ in range(self.workers):
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=IO_TIMEOUT)
        with self._mu:
            leftovers = list(self._parked.values())
            self._parked.clear()
        for conn in leftovers:
            conn.close()
        while True:  # anything still queued never reached a worker
            try:
                conn = self._queue.get_nowait()
            except queue.Empty:
                break
            if conn is not None:
                conn.close()
        self._wake_r.close()
        self._wake_w.close()

    def __enter__(self) -> "PortalServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- accept + park -----------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                sock, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed by shutdown
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(IO_TIMEOUT)
            self._park(_Connection(sock, addr), fresh=True)

    def _park(self, conn: _Connection, *, fresh: bool = False) -> None:
        """Hand a connection to the parker (or straight to the queue).

        Buffered pipelined bytes bypass the parker — ``select()`` cannot
        see data this process already read off the wire.
        """
        if self._stop.is_set():
            conn.close()
            self._note_closed(conn)
            return
        if conn.buffer:
            self._enqueue(conn, fresh=fresh)
            return
        conn.deadline = self._now() + self.keep_alive
        with self._mu:
            self._parked[conn.sock] = conn
            if fresh:
                self._active.add(conn)
                if self._g_connections is not None:
                    self._g_connections.set(len(self._active))
        try:
            self._wake_w.sendall(b"x")
        except OSError:
            pass

    def _enqueue(self, conn: _Connection, *, fresh: bool = False) -> None:
        if fresh:
            with self._mu:
                self._active.add(conn)
                if self._g_connections is not None:
                    self._g_connections.set(len(self._active))
        try:
            self._queue.put_nowait(conn)
        except queue.Full:
            self._shed_raw(conn, reason="queue")

    def _park_loop(self) -> None:
        while not self._stop.is_set():
            with self._mu:
                socks = list(self._parked)
            try:
                readable, _, _ = select.select(
                    socks + [self._wake_r], [], [], 0.5
                )
            except OSError:
                continue  # a parked socket died mid-select; next tick reaps it
            now = self._now()
            for sock in readable:
                if sock is self._wake_r:
                    try:
                        self._wake_r.recv(4096)
                    except OSError:
                        pass
                    continue
                with self._mu:
                    conn = self._parked.pop(sock, None)
                if conn is not None:
                    self._enqueue(conn)
            with self._mu:
                expired = [
                    conn for conn in self._parked.values()
                    if conn.deadline <= now
                ]
                for conn in expired:
                    del self._parked[conn.sock]
            for conn in expired:
                conn.close()
                self._note_closed(conn)

    def _note_closed(self, conn: _Connection) -> None:
        with self._mu:
            self._active.discard(conn)
            if self._g_connections is not None:
                self._g_connections.set(len(self._active))

    @staticmethod
    def _now() -> float:
        return time.monotonic()

    # -- workers -----------------------------------------------------------

    #: Consecutive requests a worker may serve off one connection before
    #: it must go back through the parker — bounds how long a hot client
    #: can monopolise a worker while queued connections wait.
    STICKY_STREAK = 32
    #: How long a worker lingers for the next request on a connection it
    #: just answered.  A closed-loop client's next request lands within
    #: this window, so the hot path skips the park → select → queue trip
    #: entirely; an idle client costs at most this before parking.
    STICKY_POLL = 0.002

    def _worker_loop(self) -> None:
        while True:
            conn = self._queue.get()
            if conn is None:
                return
            streak = 0
            while True:
                keep = False
                try:
                    keep = self._serve_one(conn)
                except Exception:
                    keep = False
                if not keep or self._stop.is_set():
                    conn.close()
                    self._note_closed(conn)
                    break
                streak += 1
                if streak >= self.STICKY_STREAK:
                    self._park(conn)
                    break
                if conn.buffer:
                    continue  # pipelined request already in hand
                try:
                    readable, _, _ = select.select(
                        [conn.sock], [], [], self.STICKY_POLL
                    )
                except OSError:
                    conn.close()
                    self._note_closed(conn)
                    break
                if readable:
                    continue
                self._park(conn)
                break

    def _serve_one(self, conn: _Connection) -> bool:
        """Read, dispatch, and answer one request.

        Returns whether the connection may be kept alive.
        """
        try:
            parsed = self._read_request(conn)
        except _BadRequest as exc:
            self._write_simple(conn, exc.status, str(exc))
            return False
        except (socket.timeout, OSError):
            return False
        if parsed is None:
            return False  # idle close
        method, target, version, headers, body = parsed
        if conn.served and self._m_reuse is not None:
            self._m_reuse.inc()
        want_keep_alive = self._keep_alive_requested(version, headers)
        # Admission: the global in-flight gate, then per-route limits.
        if not self._inflight.acquire(blocking=False):
            self._shed_parsed(conn, want_keep_alive, reason="inflight")
            conn.served += 1
            return want_keep_alive
        gate = self._route_gate(method, target)
        if gate is not None and not gate.acquire(blocking=False):
            self._inflight.release()
            self._shed_parsed(conn, want_keep_alive, reason="route")
            conn.served += 1
            return want_keep_alive
        with self._mu:
            self._inflight_count += 1
            if self._g_inflight is not None:
                self._g_inflight.set(self._inflight_count)
        try:
            status, resp_headers, payload = self._run_wsgi(
                method, target, version, headers, body, conn
            )
        finally:
            with self._mu:
                self._inflight_count -= 1
                if self._g_inflight is not None:
                    self._g_inflight.set(self._inflight_count)
            if gate is not None:
                gate.release()
            self._inflight.release()
        try:
            self._write_response(
                conn, status, resp_headers, payload, want_keep_alive
            )
        except OSError:
            return False
        conn.served += 1
        return want_keep_alive

    # -- request parsing ---------------------------------------------------

    def _read_request(self, conn: _Connection):
        head = conn.read_head(MAX_REQUEST_LINE + MAX_HEADER_BYTES)
        if head is None:
            return None
        lines = head.split(b"\r\n")
        if len(lines[0]) > MAX_REQUEST_LINE:
            raise _BadRequest(431, "request line too long")
        parts = lines[0].decode("latin-1").split()
        if len(parts) != 3:
            raise _BadRequest(400, "malformed request line")
        method, target, version = parts
        if not version.startswith("HTTP/1."):
            raise _BadRequest(400, f"unsupported protocol {version}")
        headers: dict[str, str] = {}
        for raw in lines[1:]:
            text = raw.decode("latin-1")
            name, sep, value = text.partition(":")
            if not sep:
                raise _BadRequest(400, "malformed header")
            headers[name.strip().lower()] = value.strip()
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise _BadRequest(501, "chunked bodies not supported")
        body = b""
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError:
                raise _BadRequest(400, "bad content-length")
            if length < 0:
                raise _BadRequest(400, "bad content-length")
            if length > MAX_BODY_BYTES:
                raise _BadRequest(413, "body too large")
            body = conn.read_exact(length)
        elif method in ("POST", "PUT"):
            # A body-bearing method without a length is unframeable.
            headers.setdefault("content-length", "0")
        return method, target, version, headers, body

    @staticmethod
    def _keep_alive_requested(version: str, headers: dict[str, str]) -> bool:
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.0":
            return "keep-alive" in connection
        return "close" not in connection

    def _route_gate(self, method: str, target: str):
        if not self._route_gates:
            return None
        path = target.split("?", 1)[0]
        router = getattr(self.app, "router", None)
        if router is None:
            return self._route_gates.get(path)
        route = router.pattern_for(method, path) or path
        return self._route_gates.get(route)

    # -- WSGI bridge -------------------------------------------------------

    def _run_wsgi(self, method, target, version, headers, body, conn):
        path, sep, query = target.partition("?")
        environ = {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "QUERY_STRING": query,
            "SERVER_NAME": self.host,
            "SERVER_PORT": str(self.port),
            "SERVER_PROTOCOL": version,
            "REMOTE_ADDR": conn.addr[0] if conn.addr else "",
            "wsgi.version": (1, 0),
            "wsgi.url_scheme": "http",
            "wsgi.input": io.BytesIO(body),
            "wsgi.errors": _WSGI_ERRORS,
            "wsgi.multithread": True,
            "wsgi.multiprocess": False,
            "wsgi.run_once": False,
        }
        if "content-type" in headers:
            environ["CONTENT_TYPE"] = headers["content-type"]
        if "content-length" in headers:
            environ["CONTENT_LENGTH"] = headers["content-length"]
        for name, value in headers.items():
            if name in ("content-type", "content-length"):
                continue
            environ["HTTP_" + name.upper().replace("-", "_")] = value
        captured: dict = {}

        def start_response(status, resp_headers, exc_info=None):
            captured["status"] = status
            captured["headers"] = resp_headers

        chunks = self.app(environ, start_response)
        try:
            payload = b"".join(chunks)
        finally:
            close = getattr(chunks, "close", None)
            if close is not None:
                close()
        status_line = captured.get("status", "500 Internal Server Error")
        status = int(status_line.split(" ", 1)[0])
        return status, captured.get("headers", []), payload

    # -- response writing --------------------------------------------------

    def _write_response(self, conn, status, headers, payload, keep_alive):
        status_line = _STATUS_LINES.get(status) or f"HTTP/1.1 {status} Unknown"
        head = [status_line]
        bodyless = status == 304 or status == 204
        seen_length = False
        for name, value in headers:
            if name.lower() == "content-length":
                seen_length = True
            if bodyless and name.lower() in ("content-length", "content-type"):
                continue
            head.append(f"{name}: {value}")
        if not bodyless and not seen_length:
            head.append(f"Content-Length: {len(payload)}")
        if keep_alive:
            head.append("Connection: keep-alive")
            head.append(self._keep_alive_header)
        else:
            head.append("Connection: close")
        blob = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
        if not bodyless:
            blob += payload
        conn.sock.sendall(blob)

    def _write_simple(self, conn, status, message):
        try:
            body = (message + "\n").encode("utf-8")
            self._write_response(
                conn, status,
                [("Content-Type", "text/plain; charset=utf-8")],
                body, False,
            )
        except OSError:
            pass

    def _shed_parsed(self, conn, keep_alive, *, reason):
        """503 an already-parsed request; the connection survives."""
        if self._m_shed is not None:
            self._m_shed.labels(reason=reason).inc()
        try:
            self._write_response(
                conn, 503,
                [("Content-Type", "text/plain; charset=utf-8"),
                 ("Retry-After", "1")],
                b"overloaded, retry shortly\n", keep_alive,
            )
        except OSError:
            pass

    def _shed_raw(self, conn, *, reason):
        """503 + close for a connection no worker will ever pick up."""
        if self._m_shed is not None:
            self._m_shed.labels(reason=reason).inc()
        try:
            conn.sock.settimeout(1.0)
            conn.sock.sendall(
                b"HTTP/1.1 503 Service Unavailable\r\n"
                b"Retry-After: 1\r\nContent-Length: 0\r\n"
                b"Connection: close\r\n\r\n"
            )
        except OSError:
            pass
        conn.close()
        self._note_closed(conn)
