"""Asyncio front door for a :class:`~repro.federation.sharding.ShardManager`.

One server owns one federation.  Connections are served concurrently by
asyncio streams, but every operation dispatches *synchronously* inside
the event loop — the federation's virtual clock and shard brokers are
single-threaded state, and the event loop is their serialisation point.
That keeps the concurrency model honest: sockets overlap, scheduling
decisions never do.

Backpressure is per connection: each response is written through
:func:`~repro.federation.protocol.write_frame`, whose ``drain()`` parks
the connection's coroutine while its transport buffer is full, so one
slow client throttles only itself.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from typing import Any, Optional

from repro.federation.protocol import ProtocolError, read_frame, write_frame
from repro.federation.sharding import ShardManager
from repro.io import job_from_dict
from repro.model.errors import ReproError


class FederationServer:
    """Serve a federation over length-prefixed JSON frames."""

    def __init__(
        self,
        manager: ShardManager,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.manager = manager
        self._host = host
        self._port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown = asyncio.Event()
        self.connections_served = 0
        self.frames_served = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves port 0 after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._port
        )

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` op or :meth:`stop` arrives."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        """Stop accepting and close the listener."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._shutdown.set()

    # ------------------------------------------------------------------
    # Connection loop
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_served += 1
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ProtocolError as error:
                    # The stream is unframed from here on: report and drop.
                    await write_frame(
                        writer, {"ok": False, "error": str(error)}
                    )
                    break
                if request is None:
                    break
                response = self._dispatch(request)
                self.frames_served += 1
                await write_frame(writer, response)
                if request.get("op") == "shutdown":
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # ------------------------------------------------------------------
    # Synchronous dispatch (the serialisation point)
    # ------------------------------------------------------------------
    def _dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request.get("op")
        handler = self._HANDLERS.get(op)
        if handler is None:
            return {"ok": False, "error": f"unknown op {op!r}"}
        try:
            return handler(self, request)
        except ReproError as error:
            # Any library error (bad payload, dead shard, non-monotone
            # clock, ...) is the client's problem, not the connection's.
            return {"ok": False, "error": str(error)}

    def _op_ping(self, request: dict[str, Any]) -> dict[str, Any]:
        return {"ok": True, "now": self.manager.now}

    def _op_submit(self, request: dict[str, Any]) -> dict[str, Any]:
        payload = request.get("job")
        if not isinstance(payload, dict):
            return {"ok": False, "error": "submit requires a 'job' object"}
        job = job_from_dict(payload)
        tenant_id = request.get("tenant_id")
        if tenant_id is not None:
            if not isinstance(tenant_id, str) or not tenant_id:
                return {
                    "ok": False,
                    "error": "'tenant_id' must be a non-empty string",
                }
            # The wire-level tenant wins over whatever owner the job
            # payload carried: the connection is the billing identity.
            job = replace(job, owner=tenant_id)
        at = request.get("at")
        if at is not None:
            if not isinstance(at, (int, float)):
                return {"ok": False, "error": "'at' must be a number"}
            if float(at) > self.manager.now:
                self.manager.advance_to(float(at))
        decision = self.manager.submit(job)
        response: dict[str, Any] = {
            "ok": True,
            "job_id": job.job_id,
            "admitted": decision.admitted,
            "now": self.manager.now,
        }
        if decision.shard_id is not None:
            response["shard"] = decision.shard_id
        if decision.coallocated:
            response["coallocated"] = True
            response["shards"] = list(decision.shard_ids)
        if decision.reason is not None:
            response["reason"] = decision.reason
        return response

    def _op_status(self, request: dict[str, Any]) -> dict[str, Any]:
        job_id = request.get("job_id")
        if not isinstance(job_id, str):
            return {"ok": False, "error": "status requires a 'job_id' string"}
        located = self.manager.locate(job_id)
        if located is None:
            return {"ok": True, "job_id": job_id, "state": "unknown"}
        return {"ok": True, "job_id": job_id, **located}

    def _op_cancel(self, request: dict[str, Any]) -> dict[str, Any]:
        job_id = request.get("job_id")
        if not isinstance(job_id, str):
            return {"ok": False, "error": "cancel requires a 'job_id' string"}
        return {"ok": True, "cancelled": self.manager.cancel(job_id)}

    def _op_stats(self, request: dict[str, Any]) -> dict[str, Any]:
        return {"ok": True, "stats": self.manager.stats_snapshot()}

    def _op_advance(self, request: dict[str, Any]) -> dict[str, Any]:
        to = request.get("to")
        if not isinstance(to, (int, float)):
            return {"ok": False, "error": "advance requires a numeric 'to'"}
        cycles = self.manager.advance_to(float(to))
        return {"ok": True, "now": self.manager.now, "cycles": cycles}

    def _op_drain(self, request: dict[str, Any]) -> dict[str, Any]:
        now = self.manager.drain()
        return {"ok": True, "now": now}

    def _op_kill_shard(self, request: dict[str, Any]) -> dict[str, Any]:
        shard = request.get("shard")
        if not isinstance(shard, int):
            return {"ok": False, "error": "kill-shard requires an int 'shard'"}
        evacuated = self.manager.kill_shard(shard)
        return {
            "ok": True,
            "shard": shard,
            "evacuated": [job.job_id for job in evacuated],
        }

    def _op_credits(self, request: dict[str, Any]) -> dict[str, Any]:
        tenancy = self.manager.tenancy
        if tenancy is None:
            return {"ok": False, "error": "tenancy is not enabled"}
        return {"ok": True, "credits": tenancy.snapshot()}

    def _op_tenants(self, request: dict[str, Any]) -> dict[str, Any]:
        tenancy = self.manager.tenancy
        if tenancy is None:
            return {"ok": False, "error": "tenancy is not enabled"}
        from repro.tenancy.drf import dominant_share

        tenants = []
        for name in tenancy.ledger.tenants():
            account = tenancy.ledger.account(name)
            tenants.append(
                {
                    "name": name,
                    "weight": account.weight,
                    "balance": account.balance,
                    "committed_node_seconds": account.committed_node_seconds,
                    "dominant_share": dominant_share(
                        account.committed_node_seconds, account.weight
                    ),
                }
            )
        return {"ok": True, "tenants": tenants}

    def _op_shutdown(self, request: dict[str, Any]) -> dict[str, Any]:
        self._shutdown.set()
        return {"ok": True, "now": self.manager.now}

    _HANDLERS = {
        "ping": _op_ping,
        "submit": _op_submit,
        "status": _op_status,
        "cancel": _op_cancel,
        "stats": _op_stats,
        "advance": _op_advance,
        "drain": _op_drain,
        "kill-shard": _op_kill_shard,
        "credits": _op_credits,
        "tenants": _op_tenants,
        "shutdown": _op_shutdown,
    }
