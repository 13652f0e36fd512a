"""The one JSON-over-HTTP front end and client every service here speaks.

``repro-serve``, the cluster router and the shared cache service share
one deliberately small protocol: HTTP/1.1, JSON bodies both ways, and
strictly one request per connection (every response closes it), which
keeps the parser honest and is plenty for polling workloads.

- :func:`listen` starts an ``asyncio`` server that parses each request
  by hand and answers it with a ``route(method, path, headers, body)
  -> (status, payload)`` callable.  Header names arrive lower-cased,
  and ``x-client-id`` defaults to the peer's host.  A route runs inline
  on the event loop; a route that returns an awaitable instead is
  awaited (the cluster router hands its blocking worker round trips to
  threads that way).  Bodies over :data:`MAX_BODY_BYTES` get 413, a
  malformed request line 400, a route exception 500, and a 429/503
  whose payload carries ``retry_after`` a ``Retry-After`` header.
- :class:`FrontEndHandle` runs a front end on a background event-loop
  thread, for in-process servers.
- :func:`serve_until_signalled` is the process loop: serve until
  SIGTERM/SIGINT, then run the caller's drain while the socket still
  answers.
- :func:`http_json` is the matching blocking client.

Stdlib only and cheap to import: the cache service imports it, and the
service's boot time is part of every shared-cache tier's setup.
"""

from __future__ import annotations

import asyncio
import contextlib
import inspect
import json
import signal
import threading
from http import HTTPStatus
from typing import Dict, Optional, Tuple

#: Request bodies above this size are rejected with 413 before parsing.
MAX_BODY_BYTES = 8 * 1024 * 1024


class RequestError(Exception):
    """A request refused before it reaches a route (400 or 413)."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def _response_bytes(status: int, payload: Dict, extra_headers: Dict = None) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    headers = [
        f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for key, value in (extra_headers or {}).items():
        headers.append(f"{key}: {value}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode("ascii") + body


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, Dict[str, str], bytes]:
    """Parse one HTTP/1.1 request: (method, path, headers, body)."""
    request_line = await reader.readline()
    if not request_line:
        raise ConnectionError("empty request")
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise RequestError("malformed request line")
    method, target, _version = parts
    path = target.split("?", 1)[0]
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > MAX_BODY_BYTES:
        raise RequestError("request body too large", status=413)
    body = await reader.readexactly(length) if length else b""
    return method.upper(), path, headers, body


async def _handle_connection(
    route,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        try:
            method, path, headers, body = await _read_request(reader)
        except RequestError as exc:
            writer.write(_response_bytes(exc.status, {"error": str(exc)}))
            await writer.drain()
            return
        except (ConnectionError, asyncio.IncompleteReadError, ValueError):
            return
        if not headers.get("x-client-id"):
            peer = writer.get_extra_info("peername")
            headers["x-client-id"] = peer[0] if peer else "unknown"
        try:
            reply = route(method, path, headers, body)
            status, payload = await reply if inspect.isawaitable(reply) else reply
        except Exception as exc:  # route bugs must not kill the server
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        extra = (
            {"Retry-After": payload["retry_after"]}
            if status in (429, 503) and "retry_after" in payload
            else None
        )
        writer.write(_response_bytes(status, payload, extra))
        await writer.drain()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def listen(route, host: str, port: int) -> asyncio.AbstractServer:
    """Start answering ``route`` on ``host:port`` (``port=0``: ephemeral)."""
    return await asyncio.start_server(
        lambda reader, writer: _handle_connection(route, reader, writer),
        host=host,
        port=port,
    )


@contextlib.contextmanager
def stop_signals():
    """SIGTERM/SIGINT set the yielded :class:`asyncio.Event`.

    Every service treats both signals as the graceful-stop request.  The
    handlers are installed on the running loop for the ``with`` block
    (a signal during a blocking boot is handled once the loop runs
    again) and skipped off the main thread, where only the caller can
    set the event.  Once a stop was requested, the signals stay ignored
    after the block, so the process exits 0 however often it is asked.
    """
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    installed = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):  # non-main thread, Windows
            pass
    try:
        yield stop
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
            if stop.is_set():
                # Already stopping: a repeated request (supervisors send
                # SIGTERM again while waiting) must not kill the exit.
                signal.signal(signum, signal.SIG_IGN)


async def serve_until_signalled(route, host: str, port: int, on_stop=None) -> None:
    """Serve ``route`` until SIGTERM/SIGINT, then await ``on_stop()``.

    The listening socket keeps accepting while ``on_stop`` runs, so
    clients racing a graceful drain get explicit answers (503) instead
    of refused connections.
    """
    with stop_signals() as stop:
        async with await listen(route, host, port):
            await stop.wait()
            if on_stop is not None:
                await on_stop()


class FrontEndHandle:
    """A front end for ``route`` on a background event-loop thread.

    ``port=0`` binds an ephemeral port; read the bound address from
    :attr:`address` after :meth:`start` returns.  :meth:`start` is
    idempotent, and the handle is a context manager.
    """

    def __init__(self, route, host: str, port: int, name: str = "http"):
        self._route = route
        self._host = host
        self._port = port
        self._name = name
        self.address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[Exception] = None

    def start(self):
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name=self._name, daemon=True
            )
            self._thread.start()
            if not self._ready.wait(timeout=10.0) or self.address is None:
                raise RuntimeError(f"{self._name} failed to start") from self._error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._serve())
        except Exception as exc:  # a bind failure, surfaced by start()
            self._error = exc
        finally:
            self._ready.set()  # unblock start() even on boot failure

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        tcp = await listen(self._route, self._host, self._port)
        self.address = tcp.sockets[0].getsockname()[:2]
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            # No wait_closed(): connections still waiting on a route are
            # cancelled when the loop shuts down.
            tcp.close()

    def stop(self) -> None:
        if self._loop is not None:
            with contextlib.suppress(RuntimeError):  # loop already closed
                self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def http_json(
    address: Tuple[str, int],
    method: str,
    path: str,
    body: Optional[bytes] = None,
    headers: Optional[Dict[str, str]] = None,
    timeout: float = 10.0,
) -> Tuple[int, Dict]:
    """One JSON round trip to any front end built on :func:`listen`.

    Returns ``(status, payload)`` for every HTTP status -- 4xx/5xx are
    responses to relay, not exceptions; only transport failures raise
    (``OSError``/``URLError``), which is the signal a peer is gone.
    """
    # Imported on first use: a server that never calls out (repro-serve
    # without a shared cache, the cache service) skips the client stack.
    import urllib.error
    import urllib.request

    host, port = address
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=body,
        headers={"Content-Type": "application/json", **(headers or {})},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        try:
            payload = json.load(error)
        except (json.JSONDecodeError, ValueError):
            payload = {"error": error.reason}
        return error.code, payload
