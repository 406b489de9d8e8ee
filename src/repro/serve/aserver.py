"""An asyncio HTTP front-end multiplexing many open connections.

:class:`AsyncPMBCServer` serves the same JSON schema and endpoints as
the threaded :class:`~repro.serve.server.PMBCServer`.  Both front-ends
answer every request through the one route table in
:mod:`repro.serve.server` (:func:`~repro.serve.server.route_request`):
routing, field checks, the service-free endpoints, rendering and error
mapping are written once.  What differs is the transport: this server
holds connections on a single event loop instead of one thread each.
A query or batch is **admitted** to the service without blocking
(:meth:`~repro.serve.service.PMBCService.admit` /
:meth:`~repro.serve.service.ShardedService.admit`), its future is
awaited as an asyncio future, and the connection costs no thread
while the worker pool computes.  Thousands of idle keep-alive
connections are then just loop-registered sockets — the shape the
sharded router (:mod:`repro.shard`) needs in front of N shards.

Deadline semantics match the blocking path exactly: when the await
times out, the front-end runs the service's settle race
(:meth:`~repro.serve.service.Submission.expire`) so either the 504 is
accounted ``deadline_exceeded`` on the service or the worker's
just-in-time answer is returned.

The server accepts any object with the ``PMBCService`` request
surface — a plain service or a :class:`~repro.shard.ShardedService`.
"""

from __future__ import annotations

import asyncio
import contextlib
import sys
import threading
from http.client import responses as _http_reasons

from repro.serve.server import (
    Reply,
    ServiceCall,
    error_reply,
    request_body_length,
    route_request,
)
from repro.serve.service import (
    InvalidRequestError,
    ServeError,
    Submission,
)

__all__ = ["AsyncPMBCServer"]


class AsyncPMBCServer:
    """Owns an ``asyncio.start_server`` loop bound to a service.

    The event loop runs on a dedicated background thread so the
    blocking API mirrors :class:`~repro.serve.server.PMBCServer`:
    ``start()`` returns once the socket is live, ``shutdown()`` stops
    the loop, joins its thread, and closes the service.  ``port=0``
    picks a free port; read it back from :attr:`address`.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 8642,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.verbose = verbose
        self._host = host
        self._port = port
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._address: tuple[str, int] | None = None
        self._startup_error: BaseException | None = None

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` pair."""
        if self._address is None:
            raise RuntimeError("server not started")
        return self._address

    @property
    def url(self) -> str:
        """Base URL of the bound socket."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> AsyncPMBCServer:
        """Run the loop in a daemon thread; returns once bound."""
        if self._thread is None:
            self._ready.clear()
            self._startup_error = None
            self._thread = threading.Thread(
                target=self._run, name="pmbc-aserve-loop", daemon=True
            )
            self._thread.start()
            self._ready.wait()
            if self._startup_error is not None:
                self._thread.join()
                self._thread = None
                raise self._startup_error
        return self

    def serve_forever(self) -> None:
        """Serve on the loop thread, blocking the caller until shutdown."""
        self.start()
        thread = self._thread
        while thread is not None and thread.is_alive():
            thread.join(timeout=1.0)

    def shutdown(self) -> None:
        """Stop the loop, join its thread, then close the service.

        Same teardown discipline as the threaded server: the acceptor
        (here, the event loop) is fully stopped and joined *before*
        the service — and with it the executor — goes away.
        """
        if self._thread is not None:
            loop, stop = self._loop, self._stop
            if loop is not None and stop is not None:
                with contextlib.suppress(RuntimeError):
                    loop.call_soon_threadsafe(stop.set)
            self._thread.join()
            self._thread = None
        self.service.close()

    def __enter__(self) -> AsyncPMBCServer:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - defensive
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()
            else:
                raise

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_conn, self._host, self._port
            )
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._address = server.sockets[0].getsockname()[:2]
        self._ready.set()
        async with server:
            await self._stop.wait()

    # ------------------------------------------------------------------
    # connection handling

    async def _handle_conn(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line or request_line in (b"\r\n", b"\n"):
                    break
                parts = request_line.decode("latin-1").strip().split()
                if len(parts) != 3:
                    malformed = InvalidRequestError("malformed request line")
                    await self._respond(
                        writer, error_reply(malformed), keep_alive=False
                    )
                    break
                method, target, version = parts
                headers: dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                try:
                    length = request_body_length(headers)
                except InvalidRequestError as exc:
                    await self._respond(
                        writer, error_reply(exc), keep_alive=False
                    )
                    break
                body = await reader.readexactly(length) if length else b""
                keep_alive = (
                    version == "HTTP/1.1"
                    and headers.get("connection", "").lower() != "close"
                )
                reply = route_request(self.service, method, target, body)
                if isinstance(reply, ServiceCall):
                    call = reply
                    try:
                        reply = call.respond(await self._call(call))
                    except ServeError as exc:
                        reply = error_reply(exc)
                if self.verbose:
                    print(
                        f"aserve: {method} {target} -> {reply.status}",
                        file=sys.stderr,
                    )
                await self._respond(writer, reply, keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        reply: Reply,
        keep_alive: bool,
    ) -> None:
        reason = _http_reasons.get(reply.status, "Unknown")
        head = (
            f"HTTP/1.1 {reply.status} {reason}\r\n"
            f"Content-Type: {reply.content_type}\r\n"
            f"Content-Length: {len(reply.body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        )
        for name, value in reply.headers:
            head += f"{name}: {value}\r\n"
        writer.write(head.encode("latin-1") + b"\r\n" + reply.body)
        await writer.drain()

    # ------------------------------------------------------------------
    # waiting for the service

    async def _call(self, call: ServiceCall):
        """Run ``call`` on the service without blocking the loop."""
        service = self.service
        if call.name == "update_batch":
            # update_batch blocks (bounded peeling cascade + tree
            # repairs); run it off the loop so keep-alive connections
            # stay serviced.
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                None, service.update_batch, call.arg
            )
        admit = service.admit if call.name == "query" else service.admit_batch
        return await self._settle(admit(call.arg, **call.options))

    async def _settle(self, submission: Submission):
        """Await a submission, running the expiry race on timeout.

        The concurrent future is shielded from ``wait_for``'s
        cancellation — cancelling it would leave the request
        unsettleable by both the worker and :meth:`Submission.expire`.
        After ``expire()`` the future is terminal either way, so the
        final await returns the worker's answer or raises the 504.
        """
        wrapped = asyncio.wrap_future(submission.future)
        if submission.budget is None:
            return await wrapped
        try:
            return await asyncio.wait_for(
                asyncio.shield(wrapped), timeout=submission.budget
            )
        except asyncio.TimeoutError:
            submission.expire()
            return await wrapped
