"""The load generator: keep-alive raw-socket clients and their statistics.

One process, one thread per connection, request bytes prepared before
the clock starts.  The client does as little Python per request as it
can (one ``sendall``, a framed read, a substring check) because it
shares two cores with the server under test.

A connection works through *blocks*: a block is a fixed mix of requests
(or one pass of the demo flow).  Warm-up and measurement both start and
end on block boundaries, so every run measures the same mix however
many requests fit into the window — the count of slow pages in a window
is not left to chance.
"""

from __future__ import annotations

import socket
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

READ = "read"
WRITE = "write"

FORM = "application/x-www-form-urlencoded"


@dataclass
class Reply:
    status: int
    head: bytes
    body: bytes

    def header(self, name: str) -> str:
        """Value of the first header called *name* (lower-case), or ''."""
        lowered = self.head.lower()
        marker = lowered.find(b"\r\n" + name.encode("latin-1") + b":")
        if marker == -1:
            return ""
        start = marker + len(name) + 3
        end = self.head.find(b"\r\n", start)
        if end == -1:
            end = len(self.head)
        return self.head[start:end].decode("latin-1").strip()


def build_request(
    method: str,
    target: str,
    *,
    cookie: str = "",
    headers: Sequence[tuple[str, str]] = (),
    body: bytes = b"",
) -> bytes:
    lines = [f"{method} {target} HTTP/1.1", "Host: bench"]
    if cookie:
        lines.append(f"Cookie: {cookie}")
    lines += [f"{name}: {value}" for name, value in headers]
    if method == "POST":
        lines.append(f"Content-Type: {FORM}")
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


@dataclass
class Op:
    """One prepared request and what a correct answer looks like."""

    payload: bytes
    kind: str          # READ or WRITE
    label: str         # route label for the per-route table
    expect: tuple      # acceptable status codes
    needle: bytes      # must occur in the body of a 200 ('' = no check)


#: Per-operation record: (end time, latency s, kind, label, ok, bytes).
Record = tuple


class Client:
    """One keep-alive connection."""

    def __init__(self, port: int):
        self.port = port
        self.sock: "socket.socket | None" = None
        self.buffer = b""
        self.records: list[Record] = []
        self.socket_errors = 0
        #: What went wrong, for the first few failed operations.
        self.failures: list[str] = []

    def _connect(self) -> None:
        self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def exchange(self, payload: bytes) -> Reply:
        """Send one request, read one framed response.

        A send on a connection the server closed while it sat idle
        (keep-alive timeout) is retried once on a fresh connection;
        that only happens between phases, never inside a closed loop.
        """
        for attempt in (0, 1):
            if self.sock is None:
                self._connect()
            try:
                self.sock.sendall(payload)
                return self._read()
            except (ConnectionError, socket.timeout) as exc:
                self.close()
                if attempt or isinstance(exc, socket.timeout):
                    raise
        raise AssertionError("unreachable")

    def _read(self) -> Reply:
        buffer = self.buffer
        recv = self.sock.recv
        while True:
            split = buffer.find(b"\r\n\r\n")
            if split != -1:
                break
            chunk = recv(262144)
            if not chunk:
                raise ConnectionResetError("eof in headers")
            buffer += chunk
        head = buffer[:split]
        rest = buffer[split + 4:]
        status = int(head[9:12])
        length = 0
        lowered = head.lower()
        marker = lowered.find(b"content-length:")
        if marker != -1 and status != 304:
            end = lowered.find(b"\r\n", marker)
            length = int(lowered[marker + 15: end if end != -1 else len(lowered)])
        if len(rest) < length:
            parts = [rest]
            have = len(rest)
            while have < length:
                chunk = recv(262144)
                if not chunk:
                    raise ConnectionResetError("eof in body")
                parts.append(chunk)
                have += len(chunk)
            rest = b"".join(parts)
        self.buffer = rest[length:]
        if b"connection: close" in lowered:
            self.close()
        return Reply(status, head, rest[:length])

    # -- untimed helpers (set-up, checks) ----------------------------------

    def get(self, target: str, *, cookie: str = "", headers=()) -> Reply:
        return self.exchange(build_request("GET", target, cookie=cookie, headers=headers))

    def post(self, target: str, body: str, *, cookie: str = "") -> Reply:
        return self.exchange(
            build_request("POST", target, cookie=cookie, body=body.encode("utf-8"))
        )

    # -- timed -------------------------------------------------------------

    def timed(self, op: Op, clock=time.perf_counter) -> "Reply | None":
        """Run *op*, record it; a failed check or socket error is a
        failed operation, never a dropped one."""
        started = clock()
        try:
            reply = self.exchange(op.payload)
        except OSError as exc:
            self.socket_errors += 1
            self.records.append((clock(), clock() - started, op.kind, op.label, False, 0))
            self._note(f"{op.label}: {exc!r}")
            return None
        ended = clock()
        ok = reply.status in op.expect and (
            reply.status != 200 or not op.needle or op.needle in reply.body
        )
        if not ok:
            self._note(
                f"{op.label}: status {reply.status} (expected {op.expect}), "
                f"{len(reply.body)} bytes, content check on {op.needle!r}"
            )
        self.records.append(
            (ended, ended - started, op.kind, op.label, ok, len(reply.body))
        )
        return reply


    def _note(self, failure: str) -> None:
        if len(self.failures) < 5:
            self.failures.append(failure)


Block = Callable[[Client], None]


def static_block(ops: Sequence[Op]) -> Block:
    def run(client: Client) -> None:
        timed = client.timed
        for op in ops:
            timed(op)

    return run


@dataclass
class ConnectionRun:
    """What one connection measured: its records and block boundaries."""

    records: list[Record]
    #: (start, end) of every measured block, in order.
    blocks: list[tuple[float, float]]
    socket_errors: int
    cpu_s: float = 0.0
    failures: Sequence[str] = ()

    @property
    def elapsed(self) -> float:
        return self.blocks[-1][1] - self.blocks[0][0] if self.blocks else 0.0


def _run_threads(targets: Sequence[Callable[[], None]]) -> None:
    """Run every target in a thread of its own and wait for all of them.

    An exception that ends a thread is raised here once all have been
    joined: a connection that died must fail the run, not drop out of
    its statistics."""
    errors: list["BaseException | None"] = [None] * len(targets)

    def guarded(index: int) -> None:
        try:
            targets[index]()
        except Exception as exc:  # thread boundary: reported by the caller
            errors[index] = exc

    threads = [
        threading.Thread(target=guarded, args=(i,), daemon=True)
        for i in range(len(targets))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for index, error in enumerate(errors):
        if error is not None:
            raise RuntimeError(f"connection {index} died: {error!r}") from error


def run_closed_loops(
    port: int,
    block_streams: Sequence[Sequence[Block]],
    *,
    warmup: float,
    seconds: float,
) -> list[ConnectionRun]:
    """One closed loop per stream: each waits for a reply before its
    next request.  Blocks begun during the first *warmup* seconds are
    discarded; a connection measures from the start of its first block
    after that to the first block boundary *seconds* later.  The result
    has one entry per stream, in order."""
    results: list["ConnectionRun | None"] = [None] * len(block_streams)
    warm_until = time.perf_counter() + warmup

    def drive(index: int) -> None:
        blocks = block_streams[index]
        client = Client(port)
        clock = time.perf_counter
        measured: list[tuple[float, float]] = []
        first_record = 0
        position = 0
        cpu_started = time.thread_time()
        try:
            while True:
                block = blocks[position % len(blocks)]
                position += 1
                started = clock()
                if started < warm_until:
                    block(client)
                    first_record = len(client.records)
                    continue
                block(client)
                ended = clock()
                measured.append((started, ended))
                if ended >= measured[0][0] + seconds:
                    break
        finally:
            client.close()
        results[index] = ConnectionRun(
            client.records[first_record:], measured, client.socket_errors,
            time.thread_time() - cpu_started, client.failures,
        )

    _run_threads([lambda i=i: drive(i) for i in range(len(block_streams))])
    return results


def run_paced(
    port: int, ops: Sequence[Op], *, rate: float, seconds: float, connections: int
) -> dict:
    """Open loop: request *i* is due at ``i / rate`` whether or not the
    previous reply arrived; latency counts from the due time, so a stall
    charges every request that had to wait behind it."""
    total = int(rate * seconds)
    lock = threading.Lock()
    cursor = [0]
    latencies: list[float] = []
    late: list[float] = []
    failed = [0]
    failures: list[str] = []
    origin = time.perf_counter() + 0.05

    def drive() -> None:
        client = Client(port)
        clock = time.perf_counter
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= total:
                    break
                due = origin + index / rate
                wait = due - clock()
                if wait > 0:
                    time.sleep(wait)
                sent = clock()
                reply = client.timed(ops[index % len(ops)])
                done = clock()
                with lock:
                    if reply is None or not client.records[-1][4]:
                        failed[0] += 1
                    else:
                        latencies.append(done - due)
                    late.append(max(0.0, sent - due))
        finally:
            client.close()
            failures.extend(client.failures)

    _run_threads([drive] * connections)
    latencies.sort()
    return {
        "rate_rps": rate,
        "attempted": total,
        "failed": failed[0],
        "failures": failures,
        "latencies": latencies,
        # A request sent more than 1 ms after it was due waited for a
        # free connection: the generator, not the server, was the queue.
        "late_share": sum(1 for x in late if x > 0.001) / max(1, len(late)),
    }


# -- statistics -------------------------------------------------------------


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def relative_iqr(values: Sequence[float]) -> "float | None":
    """(Q3 − Q1) / median, the spread measure the bounds are held to."""
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else None
