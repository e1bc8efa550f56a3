"""The batch ground-truth view and the one aliasing contract.

``restructure.refresh_links_from_map`` reads a :class:`GroundTruthView`
that hands every linker of a slot the same :class:`NodeInfo`.  These tests
pin that view link-for-link against an independent reference that reads
the Position-keyed map once per link, pin the two whole-network builders
to each other, and pin the contract that makes the sharing safe: a
``NodeInfo`` is never mutated in place.
"""

import dataclasses

import pytest

from repro.core import check_invariants
from repro.core.bulk_build import bulk_build
from repro.core.ids import Position
from repro.core.links import LEFT, RIGHT, NodeInfo
from repro.core.network import BatonNetwork
from repro.core.peer import BatonPeer
from repro.core.restructure import GroundTruthView, refresh_links_from_map
from repro.sim.faults import FaultPlan
from repro.sim.latency import ExponentialLatency
from repro.sim.runtime import AsyncBatonNetwork
from repro.sim.topology import ClusteredTopology
from repro.util.rng import SeededRng
from repro.workloads.concurrent import ConcurrentConfig, run_concurrent_workload
from repro.workloads.generators import ZipfianKeys, uniform_keys

from tests.conftest import balanced_config


# ---------------------------------------------------------------------------
# Independent reference: one Position-keyed map read per link
# ---------------------------------------------------------------------------


def reference_neighbor(net, position, side):
    if side == RIGHT:
        down, other = Position.right_child, Position.left_child
        take_parent_when = "is_left_child"
    else:
        down, other = Position.left_child, Position.right_child
        take_parent_when = "is_right_child"
    subtree_root = down(position)
    if net.occupant(subtree_root) is not None:
        current = subtree_root
        while net.occupant(other(current)) is not None:
            current = other(current)
        return current
    current = position
    while True:
        parent = current.parent()
        if parent is None:
            return None
        if getattr(current, take_parent_when):
            return parent
        current = parent


def reference_snapshot(net, position, include_ghosts):
    if position is None:
        return None
    address = net.occupant(position)
    peer = net.peers.get(address) if address is not None else None
    if peer is None and include_ghosts and address is not None:
        peer = net.ghosts.get(address)
    if peer is None:
        return None
    return NodeInfo(
        address=address,
        position=position,
        range=peer.range,
        left_child=net.occupant(position.left_child()),
        right_child=net.occupant(position.right_child()),
    )


def reference_links(net, position, include_ghosts):
    def snap(slot):
        return reference_snapshot(net, slot, include_ghosts)

    tables = []
    for side in (LEFT, RIGHT):
        slots = (
            position.left_table_positions()
            if side == LEFT
            else position.right_table_positions()
        )
        tables.append([snap(slot) for slot in slots])
    return (
        snap(position.parent()),
        snap(position.left_child()),
        snap(position.right_child()),
        snap(reference_neighbor(net, position, LEFT)),
        snap(reference_neighbor(net, position, RIGHT)),
        tables[0],
        tables[1],
    )


def link_values(peer):
    return (
        peer.parent,
        peer.left_child,
        peer.right_child,
        peer.left_adjacent,
        peer.right_adjacent,
        list(peer.left_table.entries),
        list(peer.right_table.entries),
    )


def assert_view_matches_reference(net, include_ghosts):
    """Refresh a detached probe per peer (the run is not disturbed) from
    one view, compare with the reference, and check the sharing."""
    view = GroundTruthView(net, include_ghosts=include_ghosts)
    shared = {}
    peers = list(net.peers.values())
    if include_ghosts:
        peers += list(net.ghosts.values())
    assert peers
    for peer in peers:
        probe = BatonPeer(peer.address, peer.position, peer.range)
        refresh_links_from_map(net, probe, view)
        assert link_values(probe) == reference_links(
            net, peer.position, include_ghosts
        ), peer
        for _, info in probe.iter_links():
            assert shared.setdefault(info.position, info) is info


def check_before_each_reconcile(anet, include_ghosts):
    """Wrap ``anet.reconcile`` so every sweep (in-window ones included)
    first checks the view against the reference on the live state."""
    original = anet.reconcile
    checked = []

    def reconcile():
        ghosts = bool(anet.net.ghosts)
        assert_view_matches_reference(anet.net, ghosts)
        if include_ghosts and ghosts:
            assert_view_matches_reference(anet.net, False)
        checked.append(ghosts)
        return original()

    anet.reconcile = reconcile
    return checked


# ---------------------------------------------------------------------------
# Equivalence: view == reference
# ---------------------------------------------------------------------------


class TestViewMatchesReference:
    def test_async_churn_with_in_window_reconcile(self):
        rng = SeededRng(11)
        net = BatonNetwork.build(80, seed=1)
        anet = AsyncBatonNetwork(net, topology=ExponentialLatency(1.0, rng))
        keys = uniform_keys(800, seed=2)
        net.bulk_load(keys)
        checked = check_before_each_reconcile(anet, include_ghosts=False)
        config = ConcurrentConfig(
            duration=40.0,
            churn_rate=2.0,
            query_rate=4.0,
            maintenance_interval=8.0,
        )
        run_concurrent_workload(anet, keys, config, seed=3)
        assert len(checked) >= 4
        check_invariants(net)

    def test_crash_churn_with_ghosts(self):
        rng = SeededRng(12)
        net = BatonNetwork.build(80, seed=4)
        anet = AsyncBatonNetwork(net, topology=ExponentialLatency(1.0, rng))
        keys = uniform_keys(800, seed=5)
        net.bulk_load(keys)
        checked = check_before_each_reconcile(anet, include_ghosts=True)
        config = ConcurrentConfig(
            duration=40.0,
            churn_rate=2.0,
            query_rate=3.0,
            fail_fraction=0.7,
            maintenance_interval=8.0,
        )
        run_concurrent_workload(
            anet, keys, config, seed=6, repair_at_end=False, reconcile_at_end=False
        )
        assert net.ghosts, "the scenario must leave unrepaired crashes"
        assert any(checked), "an in-window sweep must have seen ghosts"
        assert_view_matches_reference(net, include_ghosts=True)
        assert_view_matches_reference(net, include_ghosts=False)

    def test_lossy_clustered_topology(self):
        net = BatonNetwork.build(70, seed=7)
        plan = FaultPlan(
            ClusteredTopology(seed=8, regions=4),
            seed=9,
            drop_rate=0.04,
            duplicate_rate=0.02,
        )
        anet = AsyncBatonNetwork(net, topology=plan)
        keys = uniform_keys(700, seed=10)
        net.bulk_load(keys)
        checked = check_before_each_reconcile(anet, include_ghosts=False)
        config = ConcurrentConfig(
            duration=40.0,
            churn_rate=1.5,
            query_rate=4.0,
            insert_rate=2.0,
            maintenance_interval=8.0,
        )
        run_concurrent_workload(anet, keys, config, seed=11)
        assert len(checked) >= 4
        assert plan.stats.drops > 0


@pytest.mark.parametrize("loaded", [False, True], ids=["no-keys", "keys"])
def test_reconcile_after_bulk_build_changes_no_link(loaded):
    """The two whole-network builders agree link for link."""
    keys = uniform_keys(20_000, seed=13) if loaded else None
    net = bulk_build(1000, seed=13, keys=keys)
    before = {address: link_values(peer) for address, peer in net.peers.items()}
    AsyncBatonNetwork(net).reconcile()
    after = {address: link_values(peer) for address, peer in net.peers.items()}
    assert after == before


# ---------------------------------------------------------------------------
# The aliasing contract: a NodeInfo is never mutated in place
# ---------------------------------------------------------------------------


def guard_snapshots(monkeypatch):
    """Make reassigning an already-set NodeInfo field raise; the returned
    list also records it, in case protocol code swallows the error."""
    mutations = []

    def guarded_setattr(self, name, value):
        try:
            object.__getattribute__(self, name)
        except AttributeError:
            object.__setattr__(self, name, value)
            return
        mutations.append(name)
        raise AssertionError(f"NodeInfo.{name} mutated in place on {self}")

    monkeypatch.setattr(NodeInfo, "__setattr__", guarded_setattr)
    return mutations


@pytest.fixture
def frozen_snapshots(monkeypatch):
    mutations = guard_snapshots(monkeypatch)
    yield
    assert mutations == []


class TestNoSnapshotIsMutated:
    def test_guard_catches_a_mutation(self, monkeypatch):
        mutations = guard_snapshots(monkeypatch)
        info = NodeInfo(address=1, position=Position(0, 1), range=None)
        with pytest.raises(AssertionError):
            info.left_child = 2
        assert mutations == ["left_child"]
        assert dataclasses.replace(info, left_child=2).left_child == 2

    def test_sync_joins_leaves_and_balanced_zipf_inserts(self, frozen_snapshots):
        net = BatonNetwork.build(40, seed=14, config=balanced_config(capacity=12))
        rng = SeededRng(15)
        for _ in range(20):
            net.join()
        for _ in range(15):
            net.leave(rng.choice(sorted(net.peers)))
        zipf = ZipfianKeys(theta=1.0, seed=16)
        for _ in range(800):
            net.insert(zipf.draw())
        kinds = {event.kind for event in net.stats.balance_events}
        assert "rejoin" in kinds
        check_invariants(net)

    def test_async_churn_with_in_window_reconcile(self, frozen_snapshots):
        rng = SeededRng(17)
        anet = AsyncBatonNetwork(
            bulk_build(120, seed=18), topology=ExponentialLatency(1.0, rng)
        )
        keys = uniform_keys(1200, seed=18)
        anet.net.bulk_load(keys)
        config = ConcurrentConfig(
            duration=40.0,
            churn_rate=2.0,
            query_rate=5.0,
            insert_rate=1.0,
            maintenance_interval=8.0,
        )
        report = run_concurrent_workload(anet, keys, config, seed=19)
        assert report.reconcile_sweeps >= 4

    def test_async_crash_churn_with_repair_all(self, frozen_snapshots):
        rng = SeededRng(20)
        anet = AsyncBatonNetwork(
            BatonNetwork.build(80, seed=21), topology=ExponentialLatency(1.0, rng)
        )
        keys = uniform_keys(800, seed=21)
        anet.net.bulk_load(keys)
        config = ConcurrentConfig(
            duration=40.0, churn_rate=2.0, query_rate=3.0, fail_fraction=0.6
        )
        run_concurrent_workload(anet, keys, config, seed=22)
        assert anet.net.stats.failures > 0
        assert not anet.net.ghosts
        check_invariants(anet.net)

    def test_fault_plan_run(self, frozen_snapshots):
        rng = SeededRng(23)
        plan = FaultPlan(
            ExponentialLatency(1.0, rng), seed=24, drop_rate=0.05, duplicate_rate=0.03
        )
        anet = AsyncBatonNetwork(bulk_build(60, seed=25), topology=plan)
        keys = uniform_keys(600, seed=25)
        anet.net.bulk_load(keys)
        config = ConcurrentConfig(
            duration=30.0,
            churn_rate=1.0,
            query_rate=5.0,
            insert_rate=2.0,
            maintenance_interval=10.0,
        )
        run_concurrent_workload(anet, keys, config, seed=26)
        assert plan.stats.drops > 0

