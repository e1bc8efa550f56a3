"""Durability under concurrent churn: keys lost vs. maintenance spent.

The paper's fault-tolerance story (§IV) restores *routing* after a failure
but treats the dead peer's data as out of scope; the adjacent-replica
extension (:mod:`repro.core.replication`, DESIGN.md "Durability contract")
closes that gap.  D3-Tree (Sourla et al.) argues durability under churn
should be *measured*, not asserted — so this experiment crashes peers while
queries and inserts are in flight and counts what actually survives.

For each (churn intensity, maintenance interval) cell, a replicated BATON
network runs the concurrent workload with every departure an abrupt crash;
crashes are detected and repaired in-window (``repair_delay``), the
maintenance sweep reconciles links *and* re-anchors replicas, and every
maintenance message crosses a priced link, so the overhead column is real
traffic, not bookkeeping.  Reported per cell:

* ``keys_lost`` — keys present after loading (plus applied inserts) that
  no live peer stores once the run drains and repairs finish;
* ``recovery_p50`` / ``recovery_max`` — crash-to-repaired latency of
  in-window repairs, including the detection delay and the sized
  replica-pull hops;
* ``reconcile_msgs`` / ``replica_msgs`` — the maintenance traffic spent to
  earn that durability.

Expected shape: with replication off, every crash loses its store
(``keys_lost`` grows with churn).  With replication on, serialized crashes
lose nothing; under concurrency a small residue survives only when crashes
race the refresh interval (a mirror dies with its holder before
re-anchoring, or a stale mirror is filtered at restore), so ``keys_lost``
falls as the maintenance interval shrinks — while ``replica_msgs`` rises.
That staleness-vs-maintenance-traffic trade-off is the measurement.

The ``mode`` column separates failure regimes.  ``independent`` rows crash
peers one at a time (Poisson churn, oracle detection after
``repair_delay``).  The ``region_outage`` row is the correlated case: every
peer in one :class:`~repro.sim.topology.ClusteredTopology` region dies at
once and the only detection path is the heartbeat liveness monitor — no
oracle — so its recovery columns report the probe-measured outage (strike
to the first sustained streak of answered queries, detection latency
included) rather than per-crash repair latency.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional

from repro import overlays
from repro.core.network import LocalityConfig
from repro.experiments.harness import (
    ExperimentResult,
    ExperimentScale,
    build_baton,
    default_scale,
    loaded_keys,
    mean,
)
from repro.experiments.parallel import Cell, cell, run_cells
from repro.sim.latency import ExponentialLatency
from repro.sim.topology import ClusteredTopology
from repro.util.rng import SeededRng, derive_seed
from repro.workloads.chaos import RegionOutage
from repro.workloads.concurrent import ConcurrentConfig, run_concurrent_workload

EXPECTATION = (
    "replication=off loses every crashed peer's keys; replication=on loses "
    "zero keys when crashes are repaired without racing churn and only a "
    "small residue under concurrency (crashes racing the refresh window); "
    "shrinking the maintenance interval trades replica/reconcile messages "
    "for fewer lost keys and lower recovery latency; the correlated "
    "region_outage row survives on replication plus monitor-driven repair "
    "alone, paying its recovery time in heartbeat detection latency; the "
    "region_outage+diverse row anchors mirrors across regions so the "
    "outage never takes both copies — adjacent-placement losses vanish"
)

CHURN_RATES = (0.5, 2.0)
MAINTENANCE_INTERVALS = (0.0, 4.0, 16.0)
QUERY_RATE = 4.0
INSERT_RATE = 0.5
REPAIR_DELAY = 2.0
FAIL_FRACTION = 1.0
OUTAGE_REGIONS = 4


def cells(
    scale: ExperimentScale,
    churn_rates: tuple[float, ...] = CHURN_RATES,
    maintenance_intervals: tuple[float, ...] = MAINTENANCE_INTERVALS,
    n_peers: Optional[int] = None,
    include_baseline: bool = True,
    include_correlated: bool = True,
) -> List[Cell]:
    if n_peers is None:
        n_peers = scale.sizes[0]
    duration = scale.n_queries / QUERY_RATE
    plan: List[Cell] = []
    modes = [True, False] if include_baseline else [True]
    for replication in modes:
        intervals = maintenance_intervals if replication else (0.0,)
        for churn_rate in churn_rates:
            for interval in intervals:
                for seed in scale.seeds:
                    plan.append(
                        cell(
                            _one_run,
                            group="durability",
                            n_peers=n_peers,
                            seed=seed,
                            data_per_node=scale.data_per_node,
                            churn_rate=churn_rate,
                            maintenance_interval=interval,
                            duration=duration,
                            replication=replication,
                        )
                    )
    if include_correlated:
        interval = next(
            (i for i in maintenance_intervals if i > 0),
            MAINTENANCE_INTERVALS[1],
        )
        for diverse in (False, True):
            for seed in scale.seeds:
                plan.append(
                    cell(
                        _correlated_run,
                        group="durability",
                        n_peers=n_peers,
                        seed=seed,
                        data_per_node=scale.data_per_node,
                        maintenance_interval=interval,
                        replica_diversity=diverse,
                    )
                )
    return plan


def assemble(
    scale: ExperimentScale,
    outputs: List[dict],
    churn_rates: tuple[float, ...] = CHURN_RATES,
    maintenance_intervals: tuple[float, ...] = MAINTENANCE_INTERVALS,
    n_peers: Optional[int] = None,
    include_baseline: bool = True,
    include_correlated: bool = True,
) -> ExperimentResult:
    """One row per (replication, churn rate, maintenance interval)."""
    if n_peers is None:
        n_peers = scale.sizes[0]
    result = ExperimentResult(
        figure="Durability",
        title=(
            f"Keys lost vs. maintenance traffic under crash churn "
            f"(N={n_peers}, fail fraction {FAIL_FRACTION}, "
            f"repair delay {REPAIR_DELAY})"
        ),
        columns=[
            "mode",
            "replication",
            "churn_rate",
            "interval",
            "crashes",
            "repairs",
            "keys_lost",
            "keys_recovered",
            "recovery_p50",
            "recovery_max",
            "reconcile_msgs",
            "replica_msgs",
            "success",
        ],
        expectation=EXPECTATION,
    )
    per_point = len(scale.seeds)
    index = 0
    modes = [True, False] if include_baseline else [True]
    for replication in modes:
        intervals = maintenance_intervals if replication else (0.0,)
        for churn_rate in churn_rates:
            for interval in intervals:
                group = outputs[index : index + per_point]
                index += per_point
                result.add_row(
                    mode="independent",
                    replication=int(replication),
                    churn_rate=churn_rate,
                    interval=interval,
                    crashes=sum(c["crashes"] for c in group),
                    repairs=sum(c["repairs"] for c in group),
                    keys_lost=sum(c["keys_lost"] for c in group),
                    keys_recovered=sum(c["keys_recovered"] for c in group),
                    recovery_p50=mean([c["recovery_p50"] for c in group]),
                    recovery_max=max(c["recovery_max"] for c in group),
                    reconcile_msgs=sum(c["reconcile_msgs"] for c in group),
                    replica_msgs=sum(c["replica_msgs"] for c in group),
                    success=mean([c["success"] for c in group]),
                )
    if include_correlated:
        interval = next(
            (i for i in maintenance_intervals if i > 0),
            MAINTENANCE_INTERVALS[1],
        )
        for diverse in (False, True):
            group = outputs[index : index + per_point]
            index += per_point
            recoveries = [c["recover"] for c in group if c["recover"] >= 0]
            result.add_row(
                mode="region_outage+diverse" if diverse else "region_outage",
                replication=1,
                churn_rate=0.0,
                interval=interval,
                crashes=sum(c["crashes"] for c in group),
                repairs=sum(c["repairs"] for c in group),
                keys_lost=sum(c["keys_lost"] for c in group),
                keys_recovered=sum(c["keys_recovered"] for c in group),
                recovery_p50=mean(recoveries) if recoveries else -1.0,
                recovery_max=max(recoveries) if recoveries else -1.0,
                reconcile_msgs=sum(c["reconcile_msgs"] for c in group),
                replica_msgs=sum(c["replica_msgs"] for c in group),
                success=mean([c["success"] for c in group]),
            )
    return result


def run(
    scale: Optional[ExperimentScale] = None,
    churn_rates: tuple[float, ...] = CHURN_RATES,
    maintenance_intervals: tuple[float, ...] = MAINTENANCE_INTERVALS,
    n_peers: Optional[int] = None,
    include_baseline: bool = True,
    include_correlated: bool = True,
    jobs: int = 1,
) -> ExperimentResult:
    scale = scale or default_scale()
    outputs = run_cells(
        cells(
            scale,
            churn_rates,
            maintenance_intervals,
            n_peers,
            include_baseline,
            include_correlated,
        ),
        jobs=jobs,
    )
    return assemble(
        scale,
        outputs,
        churn_rates,
        maintenance_intervals,
        n_peers,
        include_baseline,
        include_correlated,
    )


def _stored_multiset(net) -> Counter:
    counter: Counter = Counter()
    for peer in net.peers.values():
        counter.update(peer.store)
    return counter


def _one_run(
    n_peers: int,
    seed: int,
    data_per_node: int,
    churn_rate: float,
    maintenance_interval: float,
    duration: float,
    replication: bool,
) -> dict:
    net = build_baton(n_peers, seed, data_per_node, replication=replication)
    if replication:
        net.refresh_replicas()  # anchor every mirror before the storm
    rng = SeededRng(derive_seed(seed, "durability"))
    anet = overlays.get("baton").wrap(
        net,
        topology=ExponentialLatency(mean=1.0, rng=rng.child("latency")),
        record_events=False,
        retain_ops=False,
    )
    keys = loaded_keys(n_peers, data_per_node, seed)
    before = _stored_multiset(net)
    config = ConcurrentConfig(
        duration=duration,
        churn_rate=churn_rate,
        query_rate=QUERY_RATE,
        insert_rate=INSERT_RATE,
        fail_fraction=FAIL_FRACTION,
        repair_delay=REPAIR_DELAY,
        maintenance_interval=maintenance_interval,
        min_peers=max(8, n_peers // 2),
    )
    report = run_concurrent_workload(
        anet, keys, config, seed=derive_seed(seed, "durability-driver")
    )
    expected = before + Counter(report.insert_keys_applied)
    keys_lost = sum((expected - _stored_multiset(net)).values())
    return {
        "crashes": report.fails_applied,
        "repairs": report.repairs_applied,
        "keys_lost": keys_lost,
        "keys_recovered": report.keys_recovered,
        "recovery_p50": report.recovery_latency_p50,
        "recovery_max": report.recovery_latency_max,
        "reconcile_msgs": report.reconcile_messages,
        "replica_msgs": report.replica_messages,
        "success": report.query_success_rate,
    }


def _correlated_run(
    n_peers: int,
    seed: int,
    data_per_node: int,
    maintenance_interval: float,
    replica_diversity: bool = False,
    insert_rate: float = INSERT_RATE,
) -> dict:
    """One region dies at once; only the liveness monitor notices.

    No background churn, so every lost key is attributable to the outage;
    no ``repair_delay`` oracle, so every in-window repair was earned by
    heartbeat suspicion.  ``recover`` is the scenario's probe-measured
    strike-to-service time (-1: never within the run).

    ``replica_diversity`` turns on region-diverse placement (locality
    extension): mirrors anchor across regions, so the outage can never
    take an owner and its replica together.  The anchoring refresh runs
    *after* the topology is installed — placement needs ``region_of``.
    """
    net = build_baton(
        n_peers,
        seed,
        data_per_node,
        replication=True,
        locality=LocalityConfig(replica_diversity=replica_diversity),
    )
    topology = ClusteredTopology(
        seed=derive_seed(seed, "durability-regions"), regions=OUTAGE_REGIONS
    )
    anet = overlays.get("baton").wrap(
        net, topology=topology, record_events=False, retain_ops=False
    )
    net.refresh_replicas()  # anchor every mirror before the storm
    duration = 30.0  # long enough for strike + detection + probe streak
    scenario = RegionOutage(
        strike_at=duration * 0.25, window_len=duration * 0.5
    )
    keys = loaded_keys(n_peers, data_per_node, seed)
    before = _stored_multiset(net)
    config = ConcurrentConfig(
        duration=duration,
        churn_rate=0.0,
        query_rate=QUERY_RATE,
        insert_rate=insert_rate,
        maintenance_interval=maintenance_interval,
        min_peers=8,
    )
    report = run_concurrent_workload(
        anet,
        keys,
        config,
        seed=derive_seed(seed, "durability-outage"),
        scenario=scenario,
    )
    expected = before + Counter(report.insert_keys_applied)
    keys_lost = sum((expected - _stored_multiset(net)).values())
    return {
        "crashes": report.fails_applied,
        "repairs": report.repairs_applied,
        "keys_lost": keys_lost,
        "keys_recovered": report.keys_recovered,
        "recover": (
            report.recover_time if report.recover_time is not None else -1.0
        ),
        "reconcile_msgs": report.reconcile_messages,
        "replica_msgs": report.replica_messages,
        "success": report.query_success_rate,
    }


def main() -> ExperimentResult:
    result = run()
    print(result.to_text())
    return result


if __name__ == "__main__":
    main()
