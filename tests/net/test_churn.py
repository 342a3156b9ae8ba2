"""S24 churn-tolerant data plane: replication, crash repair, the storm.

The acceptance bar of the whole layer lives here: a seeded churn plan
kills and rejoins a fifth of the cluster's virtual nodes mid-run while
an open-loop workload hammers it, and with ``replicas >= 2`` not one
acknowledged write may be lost.
"""

import asyncio

import pytest

from repro.core import CycloidNetwork
from repro.dht.storage import replica_set
from repro.net.client import ClusterError
from repro.net.cluster import LocalCluster
from repro.net.loadgen import (
    make_open_operations,
    run_churnstorm,
    validate_net_report,
)
from repro.sim.faults import ChurnEvent, ChurnPlan


def run(coro):
    return asyncio.run(coro)


def replicated_cluster(replicas=2, servers=3, nodes=24, seed=5):
    network = CycloidNetwork.with_random_ids(nodes, 4, seed=seed)
    return LocalCluster(
        network,
        servers=servers,
        build={"protocol": "cycloid", "dimension": 4, "seed": seed},
        replicas=replicas,
    )


class TestChurnPlan:
    def test_schedule_is_deterministic(self):
        names = [f"n{i}" for i in range(16)]
        plan = ChurnPlan(seed=9, kills=4)
        assert plan.schedule(names, 10.0) == plan.schedule(names, 10.0)

    def test_different_seeds_pick_different_victims(self):
        names = [f"n{i}" for i in range(16)]
        a = ChurnPlan(seed=1, kills=4).schedule(names, 10.0)
        b = ChurnPlan(seed=2, kills=4).schedule(names, 10.0)
        assert [e.node for e in a] != [e.node for e in b]

    def test_events_stay_inside_the_run(self):
        events = ChurnPlan(seed=3, kills=5).schedule(
            [f"n{i}" for i in range(12)], 7.0
        )
        assert events == sorted(events, key=lambda e: e.time)
        assert all(0.0 <= e.time <= 7.0 for e in events)

    def test_every_victim_rejoins_after_its_crash(self):
        events = ChurnPlan(seed=4, kills=3).schedule(
            [f"n{i}" for i in range(10)], 10.0
        )
        crashes = {e.node: e.time for e in events if e.action == "crash"}
        joins = {e.node: e.time for e in events if e.action == "join"}
        assert set(joins) == set(crashes)
        assert all(joins[n] >= crashes[n] for n in crashes)

    def test_no_rejoin_plan_only_crashes(self):
        events = ChurnPlan(seed=4, kills=3, rejoin=False).schedule(
            [f"n{i}" for i in range(10)], 10.0
        )
        assert [e.action for e in events] == ["crash"] * 3

    def test_someone_always_survives(self):
        events = ChurnPlan(seed=6, kills=99, rejoin=False).schedule(
            ["a", "b", "c"], 5.0
        )
        assert len(events) == 2  # at most len(names) - 1 victims

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            ChurnPlan(seed=1, start=0.8, end=0.2)
        with pytest.raises(ValueError):
            ChurnPlan(seed=1, kills=-1)
        with pytest.raises(TypeError):
            ChurnPlan(seed="nope")

    def test_events_are_plain_records(self):
        event = ChurnEvent(1.5, "crash", "n3")
        assert (event.time, event.action, event.node) == (1.5, "crash", "n3")


class TestReplicatedServing:
    def test_put_is_replicated_to_the_leaf_set(self):
        async def go():
            async with replicated_cluster(replicas=2) as cluster:
                async with cluster.client() as client:
                    source = sorted(cluster.directory)[0]
                    put = await client.put("color", "teal", source)
                    assert put["stored"] is True
                    assert put["replicas"] == 2
                    holders = [
                        str(node.name)
                        for node in replica_set(cluster.network, "color", 2)
                    ]
                    copies = 0
                    for service in cluster.services:
                        for name in holders:
                            if name in service.hosted:
                                found, value = service.storage.get(
                                    name, "color"
                                )
                                assert found and value == "teal"
                                copies += 1
                    assert copies == 2

        run(go())

    def test_crash_of_the_owner_keeps_the_value_readable(self):
        async def go():
            async with replicated_cluster(replicas=2) as cluster:
                async with cluster.client() as client:
                    names = sorted(cluster.directory)
                    await client.put("song", "bytes", names[0])
                    owner = str(
                        cluster.network.owner_of_key("song").name
                    )
                    reply = await client.crash(owner)
                    assert reply["crashed"] == owner
                    assert owner not in cluster.directory
                    survivor = sorted(cluster.directory)[0]
                    got = await client.get("song", survivor)
                    assert got["found"] is True
                    assert got["value"] == "bytes"

        run(go())

    def test_crash_reply_carries_repair_telemetry(self):
        async def go():
            async with replicated_cluster(replicas=2) as cluster:
                async with cluster.client() as client:
                    names = sorted(cluster.directory)
                    for i in range(8):
                        await client.put(f"k{i}", i, names[i])
                    reply = await client.crash(names[3])
                    for field in (
                        "lost_pairs",
                        "route_repairs",
                        "repushed_pairs",
                        "dropped_copies",
                        "repair_ms",
                    ):
                        assert field in reply
                    assert reply["network_size"] == len(names) - 1
                    assert reply["repair_ms"] >= 0.0

        run(go())

    def test_read_repair_restores_a_lost_primary_copy(self):
        async def go():
            async with replicated_cluster(replicas=2) as cluster:
                async with cluster.client() as client:
                    source = sorted(cluster.directory)[0]
                    await client.put("fragile", 7, source)
                    owner = str(
                        cluster.network.owner_of_key("fragile").name
                    )
                    # Sabotage: silently delete the primary copy.
                    for service in cluster.services:
                        if owner in service.hosted:
                            assert service.storage.drop_pair(
                                owner, "fragile"
                            )
                    got = await client.get("fragile", source)
                    assert got["found"] is True
                    assert got["value"] == 7
                    assert got["repaired"] is True
                    # The primary copy is back for the next reader.
                    repairs = sum(
                        service.read_repairs
                        for service in cluster.services
                    )
                    assert repairs == 1

        run(go())

    def test_crashing_a_whole_replica_set_loses_the_key(self):
        async def go():
            async with replicated_cluster(replicas=2) as cluster:
                async with cluster.client() as client:
                    source = sorted(cluster.directory)[0]
                    await client.put("doomed", "gone", source)
                    # Kill both holders in one breath: the second dies
                    # before repair can recreate a second copy from the
                    # first... but active rereplication runs inside each
                    # CRASH, so the copy survives unless we bypass it by
                    # dropping the pair from every shard directly.
                    holders = [
                        str(node.name)
                        for node in replica_set(
                            cluster.network, "doomed", 2
                        )
                    ]
                    for service in cluster.services:
                        for name in holders:
                            if name in service.hosted:
                                service.storage.drop_pair(name, "doomed")
                    got = await client.get("doomed", source)
                    assert got["found"] is False

        run(go())


class TestCodedErrors:
    def test_unknown_node_is_fatal(self):
        async def go():
            async with replicated_cluster() as cluster:
                async with cluster.client() as client:
                    with pytest.raises(ClusterError) as info:
                        await client.get("k", "no-such-node")
                    assert info.value.code == "unknown_node"
                    assert info.value.retryable is False

        run(go())

    def test_crashing_an_unknown_node_is_coded(self):
        async def go():
            async with replicated_cluster() as cluster:
                async with cluster.client() as client:
                    with pytest.raises(ClusterError) as info:
                        await client.crash("ghost")
                    assert info.value.code == "unknown_node"

        run(go())

    def test_crashing_the_last_hosted_node_is_refused(self):
        async def go():
            network = CycloidNetwork.with_random_ids(4, 3, seed=2)
            async with LocalCluster(
                network, servers=4, replicas=1
            ) as cluster:
                lone = [
                    s for s in cluster.services if len(s.hosted) == 1
                ][0]
                name = sorted(lone.hosted)[0]
                async with cluster.client() as client:
                    with pytest.raises(ClusterError) as info:
                        await client.crash(name)
                    assert info.value.code == "bad_request"

        run(go())


class TestChurnstorm:
    def test_zero_acked_writes_lost_under_twenty_percent_churn(self):
        # 16 virtual nodes, 4 crashed and rejoined mid-run: 25% churn.
        report = run_churnstorm(
            {"protocol": "cycloid", "dimension": 4, "seed": 42,
             "nodes": 16},
            servers=4,
            replicas=2,
            rate=250.0,
            operations=200,
            churn=ChurnPlan(seed=7, kills=4, rejoin=True),
            seed=11,
            clients=8,
        )
        churn = report["churn"]
        assert report["complete"] is True
        assert report["mode"] == "open-churn"
        assert churn["crashes"] == 4
        assert churn["joins"] == 4
        assert churn["acked_writes"] > 0
        assert churn["lost_acked_keys"] == 0
        assert churn["survival_rate"] == 1.0
        assert report["ops"]["failures"] == 0
        assert report["ops"]["completed"] == 200
        # The validator accepts the open-churn shape.
        validate_net_report(report)

    def test_rejoined_nodes_return_to_their_servers(self):
        """A rejoin goes through a name on the victim's old server, so
        arc placement survives the storm."""
        report = run_churnstorm(
            {"protocol": "cycloid", "dimension": 4, "seed": 42,
             "nodes": 16},
            servers=4,
            replicas=2,
            rate=250.0,
            operations=60,
            churn=ChurnPlan(seed=7, kills=4, rejoin=True),
            seed=11,
            clients=4,
        )
        events = report["churn"]["events"]
        homes = {
            e["node"]: e["server"] for e in events if e["action"] == "crash"
        }
        joins = [e for e in events if e["action"] == "join"]
        assert len(joins) == 4 and len(homes) == 4
        assert len({tuple(server) for server in homes.values()}) > 1
        for join in joins:
            assert join["server"] == homes[join["node"]], join

    def test_open_workload_is_seed_deterministic(self):
        a = make_open_operations(50, seed=3, rate=100.0)
        b = make_open_operations(50, seed=3, rate=100.0)
        c = make_open_operations(50, seed=4, rate=100.0)
        assert a == b
        assert a != c

    def test_open_workload_shape(self):
        ops = make_open_operations(
            200, seed=1, rate=100.0, key_universe=16, put_fraction=0.5
        )
        times = [op["scheduled"] for op in ops]
        assert times == sorted(times)
        assert all(op["op"] in ("put", "get") for op in ops)
        assert all("value" in op for op in ops if op["op"] == "put")
        assert all(0.0 <= op["source_pick"] < 1.0 for op in ops)
        # Zipf head: the most popular key dominates a uniform share.
        from collections import Counter

        top = Counter(op["key"] for op in ops).most_common(1)[0][1]
        assert top > len(ops) / 16

    def test_open_workload_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_open_operations(-1, seed=1, rate=10.0)
        with pytest.raises(ValueError):
            make_open_operations(1, seed=1, rate=0.0)
        with pytest.raises(ValueError):
            make_open_operations(1, seed=1, rate=10.0, key_universe=0)
        with pytest.raises(ValueError):
            make_open_operations(1, seed=1, rate=10.0, put_fraction=2.0)


class TestStepValidation:
    """Malformed STEP continuations answer coded errors, not tracebacks."""

    async def step_error(self, cluster, payload):
        from repro.net.codec import (
            MessageType,
            encode_frame,
            read_frame,
        )

        address = cluster.services[0].address
        reader, writer = await asyncio.open_connection(*address)
        writer.write(encode_frame(MessageType.STEP, 1, payload))
        await writer.drain()
        try:
            reply = await asyncio.wait_for(read_frame(reader), 5)
        finally:
            writer.close()
        assert reply.kind is MessageType.ERROR
        return reply.payload

    def test_unknown_operation_is_coded(self):
        async def go():
            async with replicated_cluster() as cluster:
                payload = await self.step_error(
                    cluster, {"op": "frobnicate", "key": "k"}
                )
                assert payload["code"] == "unknown_operation"
                assert "frobnicate" in payload["error"]

        run(go())

    def test_missing_key_is_coded(self):
        async def go():
            async with replicated_cluster() as cluster:
                payload = await self.step_error(cluster, {"op": "get"})
                assert payload["code"] == "bad_request"

        run(go())

    def test_hop_limit_is_coded(self):
        async def go():
            async with replicated_cluster() as cluster:
                payload = await self.step_error(
                    cluster,
                    {"op": "get", "key": "k", "hops": 10**9},
                )
                assert payload["code"] == "hop_limit"

        run(go())

    def test_misrouted_step_is_coded_and_retryable(self):
        async def go():
            from repro.net.codec import error_is_retryable

            async with replicated_cluster(servers=2) as cluster:
                foreign = sorted(cluster.services[1].hosted)[0]
                payload = await self.step_error(
                    cluster,
                    {"op": "get", "key": "k", "current": foreign},
                )
                assert payload["code"] == "misrouted"
                assert error_is_retryable(payload["code"]) is True

        run(go())
