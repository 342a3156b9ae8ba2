"""LocalCluster lifecycle: serving, storage, membership, bad frames."""

import asyncio
import logging

import pytest

from repro.core import CycloidNetwork
from repro.net.client import ClusterClient, ClusterError
from repro.net.cluster import SPEC_SCHEMA, LocalCluster, load_spec
from repro.net.codec import (
    HEADER_SIZE,
    MessageType,
    encode_frame,
    read_frame,
)


def run(coro):
    return asyncio.run(coro)


def small_cluster(servers=3):
    network = CycloidNetwork.complete(3)  # 24 nodes
    return LocalCluster(
        network, servers=servers, build={"protocol": "cycloid", "dimension": 3}
    )


class TestLifecycle:
    def test_start_serves_every_node_and_stops_cleanly(self):
        async def go():
            async with small_cluster() as cluster:
                assert len(cluster.directory) == 24
                assert len(cluster.services) == 3
                client = cluster.client()
                async with client:
                    for address in client.addresses():
                        reply = await client.ping(address)
                        assert reply["pong"] is True
                        assert reply["network_size"] == 24
            # Stopped: connecting again must fail.
            address = cluster.services[0].address
            with pytest.raises((ConnectionError, OSError)):
                await asyncio.open_connection(*address)

        run(go())

    def test_stop_with_open_connection_logs_no_asyncio_error(self, caplog):
        async def go():
            cluster = await small_cluster().start()
            address = cluster.services[0].address
            _, writer = await asyncio.open_connection(*address)
            try:
                await cluster.stop()
            finally:
                writer.close()

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            run(go())
        assert not [
            record
            for record in caplog.records
            if record.name == "asyncio" and record.levelno >= logging.ERROR
        ]

    def test_arc_partition_covers_all_nodes(self):
        cluster = small_cluster(servers=5)
        hosted = [name for svc in cluster.services for name in svc.hosted]
        assert sorted(hosted) == sorted(
            str(n.name) for n in cluster.network.live_nodes()
        )
        sizes = [len(svc.hosted) for svc in cluster.services]
        assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("servers", [1, 2, 3, 5, 7])
    def test_each_service_hosts_a_contiguous_arc(self, servers):
        network = CycloidNetwork.with_random_ids(37, 4, seed=3)
        cluster = LocalCluster(network, servers=servers)
        order = [str(node.name) for node in network.live_nodes()]
        # Concatenated in service order, the arcs are the identifier
        # order itself: every service holds one unbroken run of it.
        assert [
            name for svc in cluster.services for name in svc.hosted
        ] == order

    def test_complete_cycloid_arcs_are_cubical_ranges(self):
        network = CycloidNetwork.complete(4)  # 64 nodes, 16 cycles
        cluster = LocalCluster(network, servers=3)
        ids = {str(node.name): node.id for node in network.live_nodes()}
        for svc in cluster.services:
            cubes = sorted({ids[name].cubical for name in svc.hosted})
            assert cubes == list(range(cubes[0], cubes[-1] + 1))

    def test_more_servers_than_nodes_is_clamped(self):
        network = CycloidNetwork.with_random_ids(3, 3, seed=1)
        cluster = LocalCluster(network, servers=10)
        assert len(cluster.services) == 3

    def test_spec_round_trips_through_disk(self, tmp_path):
        async def go():
            async with small_cluster() as cluster:
                path = str(tmp_path / "spec.json")
                cluster.write_spec(path)
                spec = load_spec(path)
                assert spec["schema"] == SPEC_SCHEMA
                assert spec["build"]["protocol"] == "cycloid"
                assert spec["nodes"] == 24
                assert spec["directory"] == {
                    name: list(address)
                    for name, address in cluster.directory.items()
                }

        run(go())

    def test_load_spec_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/v9", "directory": {"a": 1}}')
        with pytest.raises(ValueError, match="cluster spec"):
            load_spec(str(path))


class TestOperations:
    def test_put_then_get_round_trips(self):
        async def go():
            async with small_cluster() as cluster:
                async with cluster.client() as client:
                    names = sorted(cluster.directory)
                    put = await client.put("color", "teal", names[0])
                    assert put["success"] is True
                    assert put["stored"] is True
                    # Read back from a *different* source node.
                    got = await client.get("color", names[-1])
                    assert got["found"] is True
                    assert got["value"] == "teal"
                    assert got["owner"] == put["owner"]

        run(go())

    def test_get_missing_key_reports_not_found(self):
        async def go():
            async with small_cluster() as cluster:
                async with cluster.client() as client:
                    source = sorted(cluster.directory)[0]
                    got = await client.get("never-stored", source)
                    assert got["success"] is True
                    assert got["found"] is False
                    assert got["value"] is None

        run(go())

    def test_join_then_leave_through_the_wire(self):
        async def go():
            network = CycloidNetwork.with_random_ids(20, 4, seed=3)
            async with LocalCluster(network, servers=2) as cluster:
                async with cluster.client() as client:
                    via = sorted(cluster.directory)[0]
                    joined = await client.join("newcomer", via)
                    assert joined["network_size"] == 21
                    name = joined["joined"]
                    assert name in cluster.directory
                    # The newcomer serves lookups immediately.
                    reply = await client.lookup("some-key", name)
                    assert reply["success"] is True
                    left = await client.leave(name)
                    assert left["left"] == name
                    assert left["network_size"] == 20
                    assert name not in cluster.directory

        run(go())

    def test_unknown_source_is_a_service_error(self):
        async def go():
            async with small_cluster() as cluster:
                directory = dict(cluster.directory)
                first = sorted(directory)[0]
                directory["ghost"] = directory[first]
                async with ClusterClient(directory) as client:
                    with pytest.raises(ClusterError, match="not hosted"):
                        await client.lookup("k", "ghost")

        run(go())


class TestBadFrames:
    async def send_raw(self, address, blob):
        reader, writer = await asyncio.open_connection(*address)
        writer.write(blob)
        await writer.drain()
        try:
            return await asyncio.wait_for(read_frame(reader), 5)
        finally:
            writer.close()

    def test_garbage_gets_error_frame_not_a_crash(self):
        async def go():
            async with small_cluster() as cluster:
                address = cluster.services[0].address
                reply = await self.send_raw(address, b"\x00" * 64)
                assert reply.kind is MessageType.ERROR
                assert reply.rpc == 0
                assert "rejected frame" in reply.payload["error"]
                assert cluster.services[0].frames_rejected == 1
                # The server still answers fresh connections.
                async with cluster.client() as client:
                    pong = await client.ping(address)
                    assert pong["pong"] is True

        run(go())

    def test_oversized_frame_is_rejected_without_buffering(self):
        async def go():
            async with small_cluster() as cluster:
                address = cluster.services[0].address
                # Header declares 2 MiB: rejected on the header alone.
                import struct

                from repro.net.codec import MAGIC, PROTOCOL_VERSION

                header = struct.pack(
                    ">2sBBQI", MAGIC, PROTOCOL_VERSION, 2, 9, 2 << 20
                )
                reply = await self.send_raw(address, header)
                assert reply.kind is MessageType.ERROR
                assert "exceeds" in reply.payload["error"]

        run(go())

    def test_wrong_version_is_rejected(self):
        async def go():
            async with small_cluster() as cluster:
                address = cluster.services[0].address
                blob = bytearray(encode_frame(MessageType.PING, 1, {}))
                blob[2] = 9
                reply = await self.send_raw(address, bytes(blob))
                assert reply.kind is MessageType.ERROR
                assert "version" in reply.payload["error"]

        run(go())

    def test_reply_frame_to_a_server_is_answered_with_error(self):
        async def go():
            async with small_cluster() as cluster:
                address = cluster.services[0].address
                blob = encode_frame(MessageType.REPLY, 11, {})
                reply = await self.send_raw(address, blob)
                assert reply.kind is MessageType.ERROR
                assert reply.rpc == 11
                assert "unexpected" in reply.payload["error"]

        run(go())

    def test_malformed_payload_with_valid_header_shape(self):
        async def go():
            async with small_cluster() as cluster:
                address = cluster.services[0].address
                good = encode_frame(MessageType.PING, 3, {"pad": "xyzw"})
                broken = good[:HEADER_SIZE] + b"\xff" * (
                    len(good) - HEADER_SIZE
                )
                reply = await self.send_raw(address, broken)
                assert reply.kind is MessageType.ERROR
                assert "JSON" in reply.payload["error"]

        run(go())


class TestReplicasThreading:
    """``replicas`` flows cluster -> every service -> spec (S24)."""

    def test_replicas_reach_every_service_and_the_spec(self):
        async def go():
            network = CycloidNetwork.complete(3)
            async with LocalCluster(
                network, servers=3, replicas=2
            ) as cluster:
                assert cluster.replicas == 2
                assert all(
                    service.replicas == 2 for service in cluster.services
                )
                assert cluster.spec()["replicas"] == 2

        run(go())

    def test_default_is_unreplicated(self):
        async def go():
            async with small_cluster() as cluster:
                assert cluster.spec()["replicas"] == 1
                assert all(
                    service.replicas == 1 for service in cluster.services
                )

        run(go())

    def test_invalid_replicas_rejected(self):
        with pytest.raises(ValueError):
            LocalCluster(CycloidNetwork.complete(3), replicas=0)

    def test_ping_reports_replication_telemetry(self):
        async def go():
            network = CycloidNetwork.complete(3)
            async with LocalCluster(
                network, servers=2, replicas=2
            ) as cluster:
                async with cluster.client() as client:
                    source = sorted(cluster.directory)[0]
                    await client.put("telemetry", 1, source)
                    pongs = [
                        await client.ping(tuple(address))
                        for address in cluster.addresses
                    ]
                    assert all(p["replicas"] == 2 for p in pongs)
                    assert sum(p["replica_pushes"] for p in pongs) >= 1

        run(go())

    def test_ping_counts_steps_forwarded_per_server_crossing(self):
        async def go():
            network = CycloidNetwork.complete(4)
            async with LocalCluster(network, servers=3) as cluster:
                directory = cluster.directory
                names = sorted(directory)
                crossings = 0
                async with cluster.client() as client:
                    for index in range(40):
                        reply = await client.lookup(
                            f"key-{index}", names[index % len(names)]
                        )
                        path = reply["path"]
                        crossings += sum(
                            directory[a] != directory[b]
                            for a, b in zip(path, path[1:])
                        )
                    pongs = [
                        await client.ping(tuple(address))
                        for address in cluster.addresses
                    ]
                assert crossings > 0
                assert [p["steps_forwarded"] for p in pongs] == [
                    svc.steps_forwarded for svc in cluster.services
                ]
                assert sum(p["steps_forwarded"] for p in pongs) == crossings

        run(go())
