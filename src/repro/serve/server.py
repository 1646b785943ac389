"""JSON-lines socket front-end for :class:`SimulationService`.

The wire protocol is one JSON object per line, both directions::

    -> {"id": 1, "kind": "infer", "params": {"x": [[...]], ...}}
    <- {"id": 1, "ok": true, "kind": "infer", "cache": "miss",
        "result": {...}, "report": {...}}

Errors come back structured, never as a dropped connection::

    <- {"id": 2, "ok": false,
        "error": {"code": "queue_full", "message": "...", ...}}

Multiple requests may be in flight per connection (each incoming line
spawns a task; responses carry the request ``id`` so callers can match
them out of order) — that concurrency is what gives the request batcher
something to coalesce.  Everything is stdlib: ``asyncio.start_server``
plus :mod:`json`.

:class:`ServeClient` is the matching blocking client used by ``cimflow
submit``, the CI smoke script, and tests.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
from typing import Any, Dict, Optional, Tuple

from repro.serve.service import ServeError, ServiceConfig, SimulationService

__all__ = ["SimulationServer", "ServeClient", "serve_forever"]

logger = logging.getLogger(__name__)

#: Refuse lines past this size instead of buffering unboundedly.
MAX_LINE_BYTES = 32 * 1024 * 1024


class SimulationServer:
    """Asyncio TCP server wrapping one :class:`SimulationService`."""

    def __init__(
        self,
        service: Optional[SimulationService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service or SimulationService()
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` after start)."""
        if self._server is None:
            raise RuntimeError("server is not running")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting connections; returns the address."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self.port,
            limit=MAX_LINE_BYTES,
        )
        return self.address

    async def stop(self) -> None:
        """Stop accepting connections and flush pending batches."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.service.batcher.flush_all()

    async def serve_forever(self) -> None:
        """Run until cancelled (``cimflow serve`` entry point)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ----------------------------------------------------------- connection
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        tasks = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    break  # oversized line or peer reset
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                # One task per request: heavy jobs must not stop later
                # lines from reaching the batcher.
                task = asyncio.ensure_future(
                    self._handle_line(line, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, asyncio.CancelledError):
                pass  # teardown during loop shutdown: nothing left to do

    async def _handle_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        request_id: Any = None
        try:
            request = json.loads(line)
            if isinstance(request, dict):
                request_id = request.get("id")
            response = await self.service.submit(request)
        except ServeError as exc:
            response = {"ok": False, "error": exc.payload()}
        except json.JSONDecodeError as exc:
            response = {
                "ok": False,
                "error": {"code": "bad_request", "message": f"invalid JSON: {exc}"},
            }
        except Exception as exc:  # never kill the connection on a bad job
            logger.exception("internal error handling request %r", request_id)
            response = {
                "ok": False,
                "error": {"code": "internal", "message": f"{type(exc).__name__}: {exc}"},
            }
        if request_id is not None:
            response["id"] = request_id
        payload = (json.dumps(response, sort_keys=True) + "\n").encode()
        async with write_lock:
            try:
                writer.write(payload)
                await writer.drain()
            except (ConnectionError, BrokenPipeError):
                pass  # peer went away; nothing to deliver to


def serve_forever(
    host: str = "127.0.0.1",
    port: int = 8473,
    config: Optional[ServiceConfig] = None,
    ready_callback=None,
) -> None:
    """Blocking entry point: run a server until interrupted.

    ``ready_callback(host, port)`` fires once the socket is bound —
    the CLI uses it to print the address, the smoke script to signal
    readiness.
    """

    async def _main() -> None:
        server = SimulationServer(
            SimulationService(config), host=host, port=port
        )
        bound_host, bound_port = await server.start()
        if ready_callback is not None:
            ready_callback(bound_host, bound_port)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


class ServeClient:
    """Minimal blocking JSON-lines client (one request at a time)."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8473, timeout: float = 300.0
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._next_id = 0

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(self, kind: str, params: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Send one request and block for its response."""
        self._next_id += 1
        line = json.dumps(
            {"id": self._next_id, "kind": kind, "params": params or {}}
        )
        self._file.write(line.encode() + b"\n")
        self._file.flush()
        raw = self._file.readline()
        if not raw:
            raise ConnectionError("server closed the connection")
        return json.loads(raw)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()
