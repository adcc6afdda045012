"""End-to-end server/client tests over real loopback sockets."""

from __future__ import annotations

import asyncio

import pytest

from repro.environment import EnvironmentConfig, EnvironmentGenerator
from repro.federation import (
    FederationClient,
    FederationClientError,
    FederationConfig,
    FederationServer,
    FederationTraceValidator,
    ShardManager,
)
from repro.federation.protocol import read_frame
from repro.service import ServiceConfig
from repro.simulation import JobGenerator


def make_server(shards=2, node_count=16, sinks=()):
    pool = (
        EnvironmentGenerator(EnvironmentConfig(node_count=node_count, seed=7))
        .generate()
        .slot_pool()
    )
    config = FederationConfig(
        shards=shards, service=ServiceConfig()
    )
    return FederationServer(ShardManager(pool, config=config, sinks=sinks))


def run(coro):
    return asyncio.run(coro)


class TestLifecycleOps:
    def test_ping_and_advance(self):
        async def _run():
            server = make_server()
            await server.start()
            try:
                async with await FederationClient.connect(
                    port=server.port
                ) as client:
                    assert await client.ping() == 0.0
                    assert await client.advance(12.5) == 12.5
                    assert await client.ping() == 12.5
            finally:
                await server.stop()

        run(_run())

    def test_submit_status_cancel_stats_drain(self):
        validator = FederationTraceValidator()

        async def _run():
            server = make_server(sinks=[validator])
            await server.start()
            arrivals = list(JobGenerator(seed=3).iter_arrivals(10, rate=2.0))
            try:
                async with await FederationClient.connect(
                    port=server.port
                ) as client:
                    for when, job in arrivals:
                        response = await client.submit(job, at=when)
                        assert response["job_id"] == job.job_id
                    # At least one job should have been admitted somewhere.
                    stats = await client.stats()
                    assert stats["federation"]["submitted"] == 10
                    status = await client.status(arrivals[0][1].job_id)
                    assert status["state"] in ("shard", "coallocated", "unknown")
                    assert await client.status("job-nope") == {
                        "ok": True,
                        "job_id": "job-nope",
                        "state": "unknown",
                    }
                    assert await client.cancel("job-nope") is False
                    await client.drain()
                    stats = await client.stats()
                    assert stats["aggregate"]["scheduled"] > 0
                    await client.shutdown()
            finally:
                await server.stop()

        run(_run())
        validator.check(expect_drained=True)

    def test_stats_carries_scan_kernel_telemetry(self):
        """The ``stats`` wire op ships the scan kernel's dispatch
        counters, so clients can see whether serving ran vectorized
        without shelling into the server host."""

        async def _run():
            server = make_server()
            await server.start()
            try:
                async with await FederationClient.connect(
                    port=server.port
                ) as client:
                    before = (await client.stats())["scan_kernel"]
                    assert set(before) >= {
                        "vectorized",
                        "fallback",
                        "plans_built",
                        "plans_reused",
                    }
                    for when, job in JobGenerator(seed=9).iter_arrivals(
                        6, rate=2.0
                    ):
                        await client.submit(job, at=when)
                    await client.drain()
                    after = (await client.stats())["scan_kernel"]
                    assert all(
                        isinstance(value, int) and value >= before[key]
                        for key, value in after.items()
                    )
            finally:
                await server.stop()

        run(_run())

    def test_kill_shard_over_the_wire(self):
        validator = FederationTraceValidator()

        async def _run():
            server = make_server(shards=3, node_count=24, sinks=[validator])
            await server.start()
            try:
                async with await FederationClient.connect(
                    port=server.port
                ) as client:
                    for when, job in JobGenerator(seed=5).iter_arrivals(
                        12, rate=4.0
                    ):
                        await client.submit(job, at=when)
                    await client.kill_shard(1)
                    stats = await client.stats()
                    assert stats["federation"]["shard_losses"] == 1
                    assert not stats["shards"][1]["alive"]
                    await client.drain()
            finally:
                await server.stop()

        run(_run())
        validator.check(expect_drained=True)
        assert validator.summary()["dead_shards"] == [1]


class TestProtocolEdges:
    def test_unknown_op_is_reported_not_fatal(self):
        async def _run():
            server = make_server()
            await server.start()
            try:
                async with await FederationClient.connect(
                    port=server.port
                ) as client:
                    response = await client.request({"op": "florble"})
                    assert response["ok"] is False
                    assert "unknown op" in response["error"]
                    # The connection survives a rejected op.
                    assert await client.ping() == 0.0
            finally:
                await server.stop()

        run(_run())

    def test_malformed_submit_payloads(self):
        async def _run():
            server = make_server()
            await server.start()
            try:
                async with await FederationClient.connect(
                    port=server.port
                ) as client:
                    response = await client.request({"op": "submit"})
                    assert response["ok"] is False
                    assert "requires a 'job'" in response["error"]
                    # Typed helpers surface server errors as exceptions.
                    with pytest.raises(FederationClientError):
                        await client.kill_shard(99)
                    # Malformed job dicts surface as errors, not crashes.
                    response = await client.request(
                        {"op": "submit", "job": {"nope": 1}}
                    )
                    assert response["ok"] is False
                    assert "malformed job payload" in response["error"]
            finally:
                await server.stop()

        run(_run())

    def test_unframed_garbage_gets_error_frame_then_close(self):
        async def _run():
            server = make_server()
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # A declared length far beyond MAX_FRAME.
                writer.write(b"\xff\xff\xff\xff garbage")
                await writer.drain()
                response = await read_frame(reader)
                assert response["ok"] is False
                assert await reader.read() == b""  # server closed
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run(_run())

    def test_shutdown_op_stops_serve_until_shutdown(self):
        async def _run():
            server = make_server()
            await server.start()
            port = server.port
            serve_task = asyncio.create_task(server.serve_until_shutdown())
            async with await FederationClient.connect(port=port) as client:
                await client.shutdown()
            await asyncio.wait_for(serve_task, timeout=5.0)

        run(_run())


class TestBackpressure:
    def test_many_clients_interleave_on_one_federation(self):
        async def _run():
            server = make_server(shards=2, node_count=24)
            await server.start()
            arrivals = list(JobGenerator(seed=9).iter_arrivals(20, rate=2.0))
            try:
                clients = [
                    await FederationClient.connect(port=server.port)
                    for _ in range(4)
                ]
                try:
                    async def drive(client, chunk):
                        results = []
                        for _, job in chunk:
                            results.append(await client.submit(job))
                        return results

                    chunks = [arrivals[i::4] for i in range(4)]
                    all_results = await asyncio.gather(
                        *(
                            drive(client, chunk)
                            for client, chunk in zip(clients, chunks)
                        )
                    )
                    assert sum(len(r) for r in all_results) == 20
                    stats = await clients[0].stats()
                    assert stats["federation"]["submitted"] == 20
                finally:
                    for client in clients:
                        await client.close()
            finally:
                await server.stop()
            return server.connections_served

        assert run(_run()) == 4
