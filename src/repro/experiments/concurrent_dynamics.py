"""Concurrent dynamics: query success and latency versus churn intensity.

Extends Figure 8(i) from "extra messages per query during a churn burst" to
the regime D3-Tree and ART are evaluated in: a sustained stream of joins
and leaves racing a stream of queries, all in flight together on the
event-driven runtime.  For each churn rate the experiment reports the
query success rate (answered fully: exact hit / complete range) and the
submit-to-answer latency percentiles in units of mean hop latency.

Since the runtime is overlay-agnostic (:mod:`repro.overlays`), the same
sweep runs against any registered overlay (``overlay="chord"`` /
``"multiway"``), and :func:`run_comparison` drives all three through
identical workloads for the paper's head-to-head claims under churn.

Expected shape: success stays near 1 and latency flat at low churn; as
churn intensity approaches the query rate, queries pay more recovery hops
(latency tail grows) and a small fraction are lost outright with their
carrier peers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro import overlays
from repro.core.invariants import collect_violations
from repro.experiments.harness import (
    ExperimentResult,
    ExperimentScale,
    build_loaded,
    default_scale,
    loaded_keys,
    mean,
)
from repro.experiments.parallel import Cell, cell, run_cells
from repro.sim.latency import ExponentialLatency
from repro.util.rng import SeededRng, derive_seed
from repro.workloads.concurrent import ConcurrentConfig, run_concurrent_workload

EXPECTATION = (
    "success rate near 1 and flat latency at low churn; latency tail and "
    "lost queries grow as churn intensity approaches the query rate; "
    "violations zero after repair/reconcile except rare residual Theorem-1 "
    "imbalance under heavy churn (a leaf departs on a safe-departure check "
    "whose correction was lost to a stale link; the next join heals it)"
)

COMPARISON_EXPECTATION = (
    "BATON answers queries in O(log N) hops with complete ranges; Chord "
    "matches exact-query latency but pays O(N) messages per range scan; "
    "the multiway tree pays long link-by-link walks, so its latencies are "
    "highest and its queries are the most fragile under churn (a walk dies "
    "with any peer it is traversing)"
)

CHURN_RATES = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
COMPARISON_CHURN_RATES = (0.0, 1.0)
QUERY_RATE = 8.0
TARGET_PEERS = 1000


def target_peers(scale: ExperimentScale) -> int:
    """The sweep population: the canonical N when the scale reaches it."""
    return (
        TARGET_PEERS if max(scale.sizes) >= TARGET_PEERS else scale.sizes[0]
    )


def cells(
    scale: ExperimentScale,
    churn_rates: tuple[float, ...] = CHURN_RATES,
    n_peers: Optional[int] = None,
    overlay: str = "baton",
) -> List[Cell]:
    if n_peers is None:
        n_peers = target_peers(scale)
    duration = scale.n_queries / QUERY_RATE
    return [
        cell(
            dynamics_cell,
            group="concurrent",
            overlay=overlay,
            n_peers=n_peers,
            seed=seed,
            data_per_node=scale.data_per_node,
            churn_rate=churn_rate,
            duration=duration,
        )
        for churn_rate in churn_rates
        for seed in scale.seeds
    ]


def assemble(
    scale: ExperimentScale,
    outputs: List[Dict[str, float]],
    churn_rates: tuple[float, ...] = CHURN_RATES,
    n_peers: Optional[int] = None,
    overlay: str = "baton",
) -> ExperimentResult:
    if n_peers is None:
        n_peers = target_peers(scale)
    result = ExperimentResult(
        figure="Concurrent dynamics",
        title=(
            f"Churn racing queries on the event runtime "
            f"({overlay}, N={n_peers}, query rate {QUERY_RATE}/unit)"
        ),
        columns=[
            "churn_rate",
            "queries",
            "success",
            "p50",
            "p90",
            "p99",
            "msgs_per_query",
            "max_in_flight",
            "violations",
        ],
        expectation=EXPECTATION,
    )
    per_point = len(scale.seeds)
    index = 0
    for churn_rate in churn_rates:
        group = outputs[index : index + per_point]
        index += per_point
        result.add_row(
            churn_rate=churn_rate,
            queries=sum(int(out["queries"]) for out in group),
            success=mean([out["success"] for out in group]),
            p50=mean([out["p50"] for out in group]),
            p90=mean([out["p90"] for out in group]),
            p99=mean([out["p99"] for out in group]),
            msgs_per_query=mean([out["msgs_per_query"] for out in group]),
            max_in_flight=max(int(out["max_in_flight"]) for out in group),
            violations=sum(int(out["violations"]) for out in group),
        )
    return result


def run(
    scale: Optional[ExperimentScale] = None,
    churn_rates: tuple[float, ...] = CHURN_RATES,
    n_peers: Optional[int] = None,
    overlay: str = "baton",
    jobs: int = 1,
) -> ExperimentResult:
    scale = scale or default_scale()
    outputs = run_cells(
        cells(scale, churn_rates, n_peers, overlay), jobs=jobs
    )
    return assemble(scale, outputs, churn_rates, n_peers, overlay)


def comparison_cells(
    scale: ExperimentScale,
    churn_rates: tuple[float, ...] = COMPARISON_CHURN_RATES,
    names: Optional[Sequence[str]] = None,
    n_peers: Optional[int] = None,
) -> List[Cell]:
    names = list(names) if names is not None else overlays.available()
    if n_peers is None:
        # Same population as the BATON-only dynamics experiment above, so
        # the baton rows of the two tables are directly comparable.
        n_peers = target_peers(scale)
    duration = scale.n_queries / QUERY_RATE
    return [
        cell(
            dynamics_cell,
            group="comparison",
            overlay=name,
            n_peers=n_peers,
            seed=seed,
            data_per_node=scale.data_per_node,
            churn_rate=churn_rate,
            duration=duration,
        )
        for name in names
        for churn_rate in churn_rates
        for seed in scale.seeds
    ]


def assemble_comparison(
    scale: ExperimentScale,
    outputs: List[Dict[str, float]],
    churn_rates: tuple[float, ...] = COMPARISON_CHURN_RATES,
    names: Optional[Sequence[str]] = None,
    n_peers: Optional[int] = None,
) -> ExperimentResult:
    """Three-way concurrent comparison: every overlay, identical workloads.

    One row per (overlay, churn rate); the churn/query/insert arrival
    processes, seeds and latency model are shared, so the rows differ only
    in how each overlay's protocol copes.
    """
    names = list(names) if names is not None else overlays.available()
    if n_peers is None:
        n_peers = target_peers(scale)
    result = ExperimentResult(
        figure="Concurrent comparison",
        title=(
            f"BATON vs. baselines under concurrent churn "
            f"(N={n_peers}, query rate {QUERY_RATE}/unit)"
        ),
        columns=[
            "overlay",
            "churn_rate",
            "queries",
            "success",
            "p50",
            "p90",
            "p99",
            "msgs_per_query",
        ],
        expectation=COMPARISON_EXPECTATION,
    )
    per_point = len(scale.seeds)
    index = 0
    for name in names:
        for churn_rate in churn_rates:
            group = outputs[index : index + per_point]
            index += per_point
            result.add_row(
                overlay=name,
                churn_rate=churn_rate,
                queries=sum(int(out["queries"]) for out in group),
                success=mean([out["success"] for out in group]),
                p50=mean([out["p50"] for out in group]),
                p90=mean([out["p90"] for out in group]),
                p99=mean([out["p99"] for out in group]),
                msgs_per_query=mean([out["msgs_per_query"] for out in group]),
            )
    return result


def run_comparison(
    scale: Optional[ExperimentScale] = None,
    churn_rates: tuple[float, ...] = COMPARISON_CHURN_RATES,
    names: Optional[Sequence[str]] = None,
    n_peers: Optional[int] = None,
    jobs: int = 1,
) -> ExperimentResult:
    scale = scale or default_scale()
    outputs = run_cells(
        comparison_cells(scale, churn_rates, names, n_peers), jobs=jobs
    )
    return assemble_comparison(scale, outputs, churn_rates, names, n_peers)


def dynamics_cell(
    overlay: str,
    n_peers: int,
    seed: int,
    data_per_node: int,
    churn_rate: float,
    duration: float,
) -> Dict[str, float]:
    """One seeded concurrent run, reduced to the aggregated report fields."""
    net = build_loaded(overlay, n_peers, seed, data_per_node)
    rng = SeededRng(derive_seed(seed, "concurrent-dynamics"))
    anet = overlays.get(overlay).wrap(
        net,
        topology=ExponentialLatency(mean=1.0, rng=rng.child("latency")),
        record_events=False,
        retain_ops=False,
    )
    keys = loaded_keys(n_peers, data_per_node, seed)
    config = ConcurrentConfig(
        duration=duration,
        churn_rate=churn_rate,
        query_rate=QUERY_RATE,
        range_fraction=0.2,
        min_peers=max(8, n_peers // 2),
    )
    report = run_concurrent_workload(
        anet, keys, config, seed=derive_seed(seed, "driver")
    )
    violations = len(collect_violations(net)) if overlay == "baton" else 0
    return {
        "queries": report.query_total,
        "success": report.query_success_rate,
        "p50": report.query_latency_p50,
        "p90": report.query_latency_p90,
        "p99": report.query_latency_p99,
        "msgs_per_query": report.messages_per_query,
        "max_in_flight": report.max_in_flight,
        "violations": violations,
    }


def main() -> ExperimentResult:
    result = run()
    print(result.to_text())
    comparison = run_comparison()
    print()
    print(comparison.to_text())
    return result


if __name__ == "__main__":
    main()
