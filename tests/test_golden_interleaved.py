"""Golden digests of small interleaved async runs.

The serialized-equivalence suites run one operation at a time, and the
determinism tests only compare a build with itself.  These pins hold a
sha256 of six seeded *interleaved* runs — many operations in flight at
once on the BATON runtime — so any change to the order, cost or outcome
of protocol steps under concurrency shows up as a digest mismatch.

Each digest covers the runtime's ``event_log`` (recorded), the bus's
per-``MsgType`` message counts, and the final ``(address, position,
range)`` map.  A digest may only be updated by a change that *means* to
alter interleaved behaviour, and says so.
"""

import hashlib

import pytest

from repro.core.network import BatonConfig, BatonNetwork, LocalityConfig
from repro.sim.faults import FaultPlan
from repro.sim.latency import ConstantLatency, ExponentialLatency
from repro.sim.runtime import AsyncBatonNetwork
from repro.sim.topology import ClusteredTopology
from repro.util.rng import SeededRng
from repro.workloads.concurrent import ConcurrentConfig, run_concurrent_workload
from repro.workloads.generators import uniform_keys


def digest(anet: AsyncBatonNetwork) -> str:
    counts = sorted(
        (mtype.name, count) for mtype, count in anet.bus.stats.by_type.items()
    )
    peers = sorted(
        (address, str(peer.position), peer.range.low, peer.range.high)
        for address, peer in anet.net.peers.items()
    )
    blob = repr((anet.event_log, counts, peers)).encode()
    return hashlib.sha256(blob).hexdigest()


def build(n_peers, seed, topology, config=None):
    net = BatonNetwork.build(n_peers, seed=seed, config=config)
    return AsyncBatonNetwork(net, topology=topology, record_events=True)


def burst(anet, rng, n_ops, keys, mix):
    """Submit ``n_ops`` operations up front (all in flight at once).

    ``mix`` maps an operation name to its weight; leaves keep at least
    eight peers and never target a peer already leaving.
    """
    names = sorted(mix)
    total = sum(mix.values())
    for _ in range(n_ops):
        roll = rng.random() * total
        for name in names:
            roll -= mix[name]
            if roll < 0:
                break
        low, high = anet.domain.low, anet.domain.high
        if name == "join":
            anet.submit_join()
        elif name == "leave":
            candidates = sorted(anet.leave_candidates())
            if len(candidates) > 8:
                anet.submit_leave(rng.choice(candidates))
        elif name == "search":
            anet.submit_search_exact(rng.choice(keys))
        elif name == "range":
            start = rng.randint(low, high - 3 * 10**7)
            anet.submit_search_range(start, start + 3 * 10**7)
        elif name == "insert":
            anet.submit_insert(rng.randint(low, high - 1))
        elif name == "delete":
            anet.submit_delete(rng.choice(keys))
        elif name == "multicast":
            start = rng.randint(low, high - 10**8)
            anet.submit_multicast(start, start + 10**8)
        elif name == "subscribe":
            start = rng.randint(low, high - 10**8)
            anet.submit_subscribe(start, start + 10**8)
    anet.drain()


def run_graceful_churn():
    rng = SeededRng(101)
    anet = build(80, 1, ExponentialLatency(1.0, rng.child("latency")))
    keys = uniform_keys(800, seed=2)
    anet.net.bulk_load(keys)
    config = ConcurrentConfig(
        duration=30.0, churn_rate=1.5, query_rate=8.0, range_fraction=0.3
    )
    run_concurrent_workload(anet, keys, config, seed=5)
    burst(
        anet,
        rng,
        300,
        keys,
        {"join": 2, "leave": 2, "search": 4, "range": 2, "delete": 1},
    )
    anet.reconcile()
    return anet


def run_crash_churn():
    rng = SeededRng(202)
    anet = build(70, 3, ExponentialLatency(1.0, rng.child("latency")))
    keys = uniform_keys(700, seed=4)
    anet.net.bulk_load(keys)
    config = ConcurrentConfig(
        duration=30.0,
        churn_rate=1.5,
        query_rate=6.0,
        fail_fraction=0.6,
        range_fraction=0.2,
    )
    run_concurrent_workload(anet, keys, config, seed=6, repair_at_end=False)
    anet.repair_all()
    anet.reconcile()
    return anet


def run_hot_key_cache():
    rng = SeededRng(303)
    config = BatonConfig(locality=LocalityConfig(cache_size=16))
    anet = build(90, 5, ExponentialLatency(1.0, rng.child("latency")), config)
    keys = uniform_keys(900, seed=6)
    anet.net.bulk_load(keys)
    hot = keys[::60]
    workload = ConcurrentConfig(
        duration=30.0,
        churn_rate=0.8,
        query_rate=10.0,
        insert_rate=3.0,
        client_gateways=4,
        maintenance_interval=10.0,
    )
    run_concurrent_workload(anet, hot, workload, seed=7)
    burst(
        anet,
        rng,
        250,
        hot,
        {"search": 6, "insert": 2, "delete": 1, "join": 1, "leave": 1},
    )
    anet.reconcile()
    return anet


def run_lossy_faults():
    rng = SeededRng(404)
    plan = FaultPlan(
        ExponentialLatency(1.0, rng.child("latency")),
        seed=8,
        drop_rate=0.05,
        duplicate_rate=0.03,
    )
    anet = build(60, 7, plan, BatonConfig(replication=True))
    keys = uniform_keys(600, seed=8)
    anet.net.bulk_load(keys)
    workload = ConcurrentConfig(
        duration=30.0,
        churn_rate=1.0,
        query_rate=6.0,
        insert_rate=2.0,
        range_fraction=0.2,
        maintenance_interval=10.0,
    )
    run_concurrent_workload(anet, keys, workload, seed=9)
    burst(
        anet,
        rng,
        200,
        keys,
        {"search": 3, "insert": 2, "delete": 2, "join": 1, "leave": 1},
    )
    anet.reconcile()
    return anet


def run_pubsub_in_flight():
    rng = SeededRng(505)
    anet = build(120, 9, ConstantLatency(1.0))
    keys = uniform_keys(1200, seed=10)
    anet.net.bulk_load(keys)
    workload = ConcurrentConfig(
        duration=25.0,
        churn_rate=1.0,
        query_rate=4.0,
        insert_rate=4.0,
        publish_rate=2.0,
        subscribe_rate=1.0,
    )
    run_concurrent_workload(anet, keys, workload, seed=11)
    burst(
        anet,
        rng,
        200,
        keys,
        {"multicast": 2, "subscribe": 2, "insert": 3, "join": 1, "leave": 1},
    )
    anet.reconcile()
    return anet


def run_probed_joins():
    rng = SeededRng(606)
    config = BatonConfig(locality=LocalityConfig(join_probes=4))
    anet = build(100, 11, ClusteredTopology(seed=12, regions=4), config)
    keys = uniform_keys(1000, seed=12)
    anet.net.bulk_load(keys)
    workload = ConcurrentConfig(
        duration=25.0, churn_rate=2.0, join_fraction=0.8, query_rate=5.0
    )
    run_concurrent_workload(anet, keys, workload, seed=13)
    burst(anet, rng, 150, keys, {"join": 3, "leave": 1, "search": 2})
    anet.reconcile()
    return anet


GOLDEN = {
    "graceful_churn": (
        run_graceful_churn,
        "8e4aa19a69988b414f07d23e5622fad51ab70f0e5ca9cb4f9548c8a3436d63d7",
    ),
    "crash_churn": (
        run_crash_churn,
        "b472a0a7a53e34d1e3462f3644ff30184a37425e87a2acab2bb34fd44b5a4b4f",
    ),
    "hot_key_cache": (
        run_hot_key_cache,
        "46743080409d19d8a752646381d884722e94e1711b1a7778b203d0595a3f7187",
    ),
    "lossy_faults": (
        run_lossy_faults,
        "f7bfb4a3708cf19768dc678a3d1af3250177c7097bc09ccd7cf4875416e86523",
    ),
    "pubsub_in_flight": (
        run_pubsub_in_flight,
        "dd1c716a1ea3808aecea8090256b80b7819b44518ccc31ae72fcca17acb3c233",
    ),
    "probed_joins": (
        run_probed_joins,
        "d46eaa1f4df6f47efec1c7aab1cb9e81343270f89a3f61fea05344363bc91c6f",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_interleaved_run_matches_golden_digest(name):
    run, expected = GOLDEN[name]
    assert digest(run()) == expected
