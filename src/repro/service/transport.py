"""The service's one network path: addresses, frame server, frame client.

Addresses are spelled one of two ways:

* ``host:port`` — TCP (``127.0.0.1:9901``; port ``0`` asks the OS for a
  free port, which the server reports back after binding);
* ``unix:/path/to.sock`` — a Unix-domain stream socket.

Every peer speaks the length-prefixed frame protocol of
:mod:`repro.service.delta` as request → reply: the client sends one frame
and reads one frame back. :class:`AsyncFrameServer` serves it for every
aggregator (single, shard and root); :class:`FrameClient` is the
long-lived, reconnecting client behind shippers and the shard uplink;
:func:`request` is the one-shot form for operator and supervisor queries.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import socket
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, TypeVar

from repro.core.errors import DeltaFormatError, ServiceError
from repro.obs.logs import get_logger
from repro.service.delta import (
    _LENGTH,
    MAX_BATCH_DELTAS,
    _split_length_prefix,
    decode_frame_payload_ex,
    encode_frame,
    read_frame,
    write_frame,
)

if TYPE_CHECKING:
    from repro.service.aggregator import ProfileAggregator

logger = get_logger(__name__)

T = TypeVar("T")

__all__ = [
    "AsyncFrameServer",
    "FrameClient",
    "ServiceAddress",
    "connect",
    "parse_address",
    "request",
]


@dataclass(frozen=True)
class ServiceAddress:
    """A parsed service endpoint: TCP host/port or a Unix socket path."""

    family: str  # "tcp" | "unix"
    host: str = ""
    port: int = 0
    path: str = ""

    def __str__(self) -> str:
        if self.family == "unix":
            return f"unix:{self.path}"
        return f"{self.host}:{self.port}"


def parse_address(spec: "str | ServiceAddress") -> ServiceAddress:
    """Parse ``host:port`` or ``unix:/path`` into a :class:`ServiceAddress`."""
    if isinstance(spec, ServiceAddress):
        return spec
    spec = str(spec)
    if spec.startswith("unix:"):
        path = spec[len("unix:") :]
        if not path:
            raise ServiceError("unix address needs a socket path (unix:/path)")
        return ServiceAddress(family="unix", path=path)
    host, sep, port_text = spec.rpartition(":")
    if not sep or not host:
        raise ServiceError(
            f"service address must be host:port or unix:/path, got {spec!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ServiceError(f"invalid port in service address {spec!r}") from None
    if not 0 <= port <= 65535:
        raise ServiceError(f"port out of range in service address {spec!r}")
    return ServiceAddress(family="tcp", host=host, port=port)


def connect(address: "str | ServiceAddress", timeout: float = 5.0) -> socket.socket:
    """Open a stream connection to ``address`` (caller closes it)."""
    address = parse_address(address)
    if address.family == "unix":
        if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-POSIX
            raise ServiceError("unix-domain sockets unavailable on this platform")
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(timeout)
            sock.connect(address.path)
        except BaseException:
            sock.close()
            raise
        return sock
    return socket.create_connection(
        (address.host, address.port), timeout=timeout
    )


def request(
    address: "str | ServiceAddress", frame: object, timeout: float = 5.0
) -> object | None:
    """Send one frame on a fresh connection and return the reply.

    ``None`` means the server closed the connection without replying, as
    it does after a ``shutdown`` frame.
    """
    sock = connect(address, timeout=timeout)
    with sock, sock.makefile("rwb") as stream:
        write_frame(stream, frame)
        return read_frame(stream)


class FrameClient:
    """A reconnecting request/reply connection to one frame server.

    Connects lazily on the first request. After a failure the caller
    calls :meth:`back_off`, which closes the connection and shuts a
    retry gate (:meth:`ready`) for an exponentially growing delay. The
    exponential schedule alone is synchronized: every client that lost
    the same server computes the same retry instants and the herd
    arrives as one wave, so each delay is spread over ±``backoff_jitter``
    of its nominal value (injectable RNG for tests), still capped at
    ``backoff_max``.

    Every frame it sends is compressed. ``greeting``, when given, builds
    a frame sent on every new connection before the first request (its
    reply is read and dropped) — the shard uplink registers its serving
    address that way. Not thread-safe: the owner serializes its requests.
    """

    def __init__(
        self,
        address: "str | ServiceAddress",
        *,
        timeout: float = 5.0,
        backoff_base: float = 0.05,
        backoff_max: float = 5.0,
        backoff_jitter: float = 0.5,
        rng: random.Random | None = None,
        greeting: Callable[[], object] | None = None,
    ) -> None:
        self.address = parse_address(address)
        self.timeout = float(timeout)
        self.backoff_base = float(backoff_base)
        self.backoff_max = float(backoff_max)
        self.backoff_jitter = float(backoff_jitter)
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ServiceError(
                f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}"
            )
        self._rng = rng if rng is not None else random.Random()
        self.greeting = greeting
        #: consecutive failures; a reply or a :meth:`retarget` resets it
        self.failures = 0
        #: ``time.monotonic()`` instant the retry gate reopens
        self.retry_at = 0.0
        self._sock: socket.socket | None = None
        self._stream: IO[bytes] | None = None

    def ready(self) -> bool:
        """Connected, or the backoff since the last failure has expired."""
        return self._stream is not None or time.monotonic() >= self.retry_at

    def request_batches(
        self,
        items: Sequence[T],
        make_frame: Callable[[Sequence[T]], object],
    ) -> Iterator[tuple[Sequence[T], object]]:
        """Send ``items`` in order, one request per run of them, and yield
        each run with its reply.

        ``make_frame`` builds a run's frame. A run holds at most
        ``MAX_BATCH_DELTAS`` items and is halved until its frame fits in
        ``MAX_FRAME_BYTES``; an item too large alone raises
        :class:`DeltaFormatError` before any I/O. A failed exchange raises
        :class:`OSError` or :class:`ServiceError` with the connection
        closed; the ledger settles the resend of a frame applied anyway.
        """
        runs = [
            items[start : start + MAX_BATCH_DELTAS]
            for start in range(0, len(items), MAX_BATCH_DELTAS)
        ]
        runs.reverse()
        while runs:
            run = runs.pop()
            try:
                data = encode_frame(make_frame(run), compress=True)
            except DeltaFormatError:
                if len(run) == 1:
                    raise
                half = len(run) // 2
                runs += [run[half:], run[:half]]
                continue
            yield run, self._exchange(data)

    def _exchange(self, data: bytes) -> object:
        """Write one encoded frame and read the reply."""
        try:
            stream = self._stream or self._connect()
            stream.write(data)
            stream.flush()
            reply = read_frame(stream)
            if reply is None:
                raise ServiceError(
                    f"{self.address} closed the connection without a reply"
                )
        except (OSError, ServiceError):
            self.close()
            raise
        self.failures = 0
        self.retry_at = 0.0
        return reply

    def _connect(self) -> IO[bytes]:
        sock = connect(self.address, timeout=self.timeout)
        self._sock, self._stream = sock, sock.makefile("rwb")
        if self.greeting is not None:
            write_frame(self._stream, self.greeting(), compress=True)
            if read_frame(self._stream) is None:
                raise ServiceError(f"{self.address} closed on the greeting")
        return self._stream

    def back_off(self) -> float:
        """Close the connection and shut the retry gate; returns the delay."""
        self.close()
        self.failures += 1
        delay = min(
            self.backoff_max, self.backoff_base * (2 ** (self.failures - 1))
        )
        if self.backoff_jitter:
            spread = 1.0 + self.backoff_jitter * (2.0 * self._rng.random() - 1.0)
            delay = min(self.backoff_max, delay * spread)
        self.retry_at = time.monotonic() + delay
        return delay

    def retarget(self, address: "str | ServiceAddress") -> None:
        """Aim at ``address``: drop the old connection and the backoff.

        A half-dead peer can keep a stale socket "working" long after the
        server it belonged to was replaced, so the connection always goes.
        """
        self.address = parse_address(address)
        self.close()
        self.failures = 0
        self.retry_at = 0.0

    def close(self) -> None:
        for closable in (self._stream, self._sock):
            if closable is not None:
                with contextlib.suppress(OSError):
                    closable.close()
        self._stream = None
        self._sock = None


#: Frames whose handling can re-expand the program (a manual rollback, or
#: a health sample that trips one). They run on a worker thread so they
#: cannot stall ingest on the other connections.
_OFF_LOOP_FRAMES = frozenset({"rollback", "observe"})


class AsyncFrameServer:
    """Serve the frame protocol for an aggregator on one asyncio loop.

    The loop runs in one daemon thread and holds every connection, so a
    server carries thousands of mostly idle shippers without a thread
    each. Frames are handled synchronously on the loop by
    ``target.handle_frame`` (thread-safe, and fast for ingest), except
    the :data:`_OFF_LOOP_FRAMES`. Replies go out uncompressed; a ``None``
    reply (the shutdown frame) closes the connection. A connection that
    does not complete a frame within ``read_timeout`` seconds is dropped
    and counted in ``handler_read_timeouts_total``.
    """

    def __init__(
        self,
        target: "ProfileAggregator",
        listen: ServiceAddress,
        read_timeout: float | None,
    ) -> None:
        self.target = target
        self.listen = listen
        self.read_timeout = read_timeout
        #: the bound address (with the real port once started)
        self.address = listen
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: Exception | None = None

    def start(self) -> "AsyncFrameServer":
        """Bind and serve; raises the bind error (address in use, ...)."""
        self._thread = threading.Thread(
            target=self._run_loop, name="pgmp-aggregator-transport", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise self._startup_error
        return self

    def stop(self) -> threading.Thread | None:
        """Close the listener and every connection.

        Returns the loop's thread for the caller to join, and to report
        if it does not finish.
        """
        thread, self._thread = self._thread, None
        loop = self._loop
        if thread is not None and loop is not None:
            with contextlib.suppress(RuntimeError):  # loop already closed
                loop.call_soon_threadsafe(loop.stop)
        return thread

    def _run_loop(self) -> None:
        loop = None
        try:
            try:
                loop = self._loop = asyncio.new_event_loop()
                server = loop.run_until_complete(self._bind())
            except Exception as exc:  # re-raised by start()
                self._startup_error = exc
                return
            finally:
                self._started.set()
            loop.run_forever()
            loop.run_until_complete(_close(server))
        finally:
            if loop is not None:
                loop.close()

    async def _bind(self) -> asyncio.AbstractServer:
        if self.listen.family == "unix":
            if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-POSIX
                raise ServiceError(
                    "unix-domain sockets unavailable on this platform"
                )
            return await asyncio.start_unix_server(
                self._serve, path=self.listen.path
            )
        server = await asyncio.start_server(
            self._serve, host=self.listen.host, port=self.listen.port
        )
        host, port = server.sockets[0].getsockname()[:2]
        self.address = ServiceAddress(family="tcp", host=str(host), port=int(port))
        return server

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: a loop of request frame → reply frame."""
        target = self.target
        metrics = target.metrics
        metrics.inc("connections_total")
        try:
            while True:
                try:
                    async with asyncio.timeout(self.read_timeout):
                        frame, wire_bytes, raw = await _read_frame(reader)
                except TimeoutError:
                    metrics.inc("handler_read_timeouts_total")
                    logger.warning(
                        "dropping connection: no frame within %.1fs",
                        self.read_timeout,
                    )
                    return
                except DeltaFormatError:
                    # A torn or corrupt stream: nothing sensible can follow.
                    metrics.inc("protocol_errors_total")
                    return
                if frame is None:
                    return
                kind = frame.get("type") if isinstance(frame, dict) else None
                if kind in _OFF_LOOP_FRAMES:
                    reply = await asyncio.get_running_loop().run_in_executor(
                        None, target.handle_frame, frame
                    )
                else:
                    reply = target.handle_frame(
                        frame, wire_bytes=wire_bytes, raw=raw
                    )
                if reply is None:
                    return  # shutdown frame: close this connection too
                writer.write(encode_frame(reply))
                await writer.drain()
        except OSError:
            return  # client vanished mid-frame; its spill will replay
        except asyncio.CancelledError:
            # Only _close() cancels these tasks, and one that ends
            # cancelled makes Python 3.11's stream callback log an error.
            return
        except Exception:
            logger.exception("dropping connection: frame handler raised")
        finally:
            writer.close()
            with contextlib.suppress(OSError, asyncio.CancelledError):
                await writer.wait_closed()


async def _close(server: asyncio.AbstractServer) -> None:
    """Stop listening, then end every connection and worker thread."""
    server.close()
    # Connections first: from 3.12 on, wait_closed() waits for them.
    tasks = asyncio.all_tasks() - {asyncio.current_task()}
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)
    await server.wait_closed()
    await asyncio.get_running_loop().shutdown_default_executor()


async def _read_frame(
    reader: asyncio.StreamReader,
) -> tuple[object | None, int, bytes]:
    """:func:`repro.service.delta.read_frame` over an asyncio stream, plus
    the frame's wire size and decompressed JSON bytes (``(None, 0, b"")``
    on a clean end-of-stream)."""
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None, 0, b""  # clean end-of-stream
        raise DeltaFormatError("stream ended mid frame-length prefix") from None
    length, compressed = _split_length_prefix(_LENGTH.unpack(header)[0])
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise DeltaFormatError(
            f"stream ended mid frame payload "
            f"({len(exc.partial)} of {length} bytes)"
        ) from None
    frame, json_bytes = decode_frame_payload_ex(payload, compressed=compressed)
    return frame, _LENGTH.size + length, json_bytes
