"""Benchmark: wall-clock scale profile of the event runtime.

The measured object is the repository's own machinery — engine, hop
pricing, workload driver — not the overlay: :func:`profile_run` times the
build and the churn+query drive for one population (see
``experiments/scale_profile.py``).  The N=1000 cell is the benchmark
trajectory's anchor (``BENCH_scale.json`` at the repo root holds the
checked-in point; ``python -m repro profile --out`` refreshes it), and the
regression test fails when the driver gets more than
``REPRO_BENCH_FACTOR``x (default 2x) slower than that baseline.

The shortened N=10k cell — the paper's headline population — the
N=30k bulk-build stand-in and the N=30k reconcile-vs-build gate are gated
behind ``REPRO_SCALE_SMOKE=1`` (CI's benchmark job sets it) so ordinary
test runs stay fast; the full N=100k cells — bulk build plus a
~10⁶-event drive, and the same reconcile gate — need
``REPRO_FULL_SCALE=1``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro import overlays
from repro.experiments import scale_profile
from repro.experiments.harness import build_loaded

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_scale.json"


def _baseline_row(n_peers: int, workload=None):
    """The checked-in trajectory point for one population, if present.

    Standard rows carry no ``workload`` tag; the pub/sub dissemination
    cell is tagged ``"pubsub"`` so it never shadows the standard gate.
    """
    if not BASELINE_PATH.exists():
        return None
    with open(BASELINE_PATH) as handle:
        payload = json.load(handle)
    if payload.get("schema") != scale_profile.BENCH_SCHEMA:
        return None
    for row in payload.get("rows", []):
        if row.get("n_peers") == n_peers and row.get("workload") == workload:
            return row
    return None


def test_n1000_driver(benchmark):
    """The acceptance driver: N=1000 build + concurrent churn/query drive.

    Guards the refactor's speedup: the run must stay within
    REPRO_BENCH_FACTOR (default 2x) of the committed baseline's wall
    clock — a trajectory point that itself documents the >=2x speedup
    over the pre-refactor driver.
    """
    row = benchmark.pedantic(
        lambda: scale_profile.profile_run(1000, seed=0), iterations=1, rounds=1
    )
    benchmark.extra_info["row"] = row
    assert row["queries"] > 0
    assert row["success"] > 0.9
    assert row["events"] > 0
    # Cancellation tombstones must not balloon the heap: its high-water
    # mark stays far below the total number of events pushed through it.
    assert row["peak_heap"] < row["events"]

    baseline = _baseline_row(1000)
    if baseline is None:
        pytest.skip("no BENCH_scale.json baseline committed for N=1000")
    factor = float(os.environ.get("REPRO_BENCH_FACTOR", "2.0"))
    budget = factor * float(baseline["total_s"])
    assert row["total_s"] <= budget, (
        f"scale regression: N=1000 build+drive took {row['total_s']:.2f}s, "
        f"baseline {baseline['total_s']:.2f}s (budget {budget:.2f}s); "
        f"if this is an intentional trade, refresh BENCH_scale.json via "
        f"'python -m repro profile --out BENCH_scale.json'"
    )
    # The throughput gate: events/sec through the engine must stay within
    # the same factor of the committed row (wall-clock alone would let a
    # slower engine hide behind a cheaper build).
    floor = float(baseline["events_per_s"]) / factor
    assert row["events_per_s"] >= floor, (
        f"engine regression: N=1000 drive ran {row['events_per_s']:.0f} "
        f"events/s, baseline {baseline['events_per_s']:.0f} "
        f"(floor {floor:.0f}); refresh BENCH_scale.json if intentional"
    )


def test_n1000_pubsub_driver(benchmark):
    """The dissemination cell: publish/subscribe traffic on the N=1000
    window, gated on engine events/sec against the committed pubsub row
    (multicast fan-outs dominate the extra events, so this is the
    multicast-path throughput gate)."""
    row = benchmark.pedantic(
        lambda: scale_profile.profile_run(
            1000,
            seed=0,
            publish_rate=scale_profile.PUBSUB_PUBLISH_RATE,
            subscribe_rate=scale_profile.PUBSUB_SUBSCRIBE_RATE,
        ),
        iterations=1,
        rounds=1,
    )
    benchmark.extra_info["row"] = row
    assert row["workload"] == "pubsub"
    assert row["multicast_deliveries"] > 0
    assert row["subscriptions"] > 0
    assert row["success"] > 0.9
    assert row["peak_heap"] < row["events"]

    baseline = _baseline_row(1000, workload="pubsub")
    if baseline is None:
        pytest.skip("no BENCH_scale.json pubsub baseline committed")
    factor = float(os.environ.get("REPRO_BENCH_FACTOR", "2.0"))
    floor = float(baseline["events_per_s"]) / factor
    assert row["events_per_s"] >= floor, (
        f"dissemination regression: N=1000 pubsub drive ran "
        f"{row['events_per_s']:.0f} events/s, baseline "
        f"{baseline['events_per_s']:.0f} (floor {floor:.0f}); refresh "
        f"BENCH_scale.json if intentional"
    )


def test_n1000_inert_faultplan_zero_overhead(benchmark):
    """The chaos wrapper must be free when unused.

    An inert :class:`~repro.sim.faults.FaultPlan` (no rates, no windows)
    routes every hop through the chaos transmit path, but with nothing to
    inject it must behave like the plain transport: the very same events
    execute (the inert plan consumes no randomness, so the run is
    event-for-event identical), and the engine's throughput stays within
    5% of the fast path.  The drive window is short, so wall clock is
    noisy: both variants run several *interleaved* rounds over a doubled
    window (frequency drift and warm-up then hit both sides alike) and
    the best (highest events/s) of each side is compared.
    """
    rounds = 5
    window = scale_profile.DURATION * 2
    plain, inert = [], []
    for _ in range(rounds):
        plain.append(
            scale_profile.profile_run(1000, seed=0, duration=window)
        )
        inert.append(
            scale_profile.profile_run(
                1000, seed=0, duration=window, wrap_faults=True
            )
        )
    row = benchmark.pedantic(
        lambda: scale_profile.profile_run(
            1000, seed=0, duration=window, wrap_faults=True
        ),
        iterations=1,
        rounds=1,
    )
    benchmark.extra_info["row"] = row

    # Identical work: the inert plan changes nothing about the run itself.
    assert {r["events"] for r in plain} == {row["events"]}
    assert {r["events"] for r in inert} == {row["events"]}
    assert plain[0]["queries"] == row["queries"]
    assert plain[0]["success"] == row["success"]
    assert plain[0]["messages"] == row["messages"]
    assert plain[0]["p50"] == row["p50"]

    best_plain = max(float(r["events_per_s"]) for r in plain)
    best_inert = max(float(r["events_per_s"]) for r in inert + [row])
    assert best_inert >= 0.95 * best_plain, (
        f"inert FaultPlan costs more than 5%: best fast path "
        f"{best_plain:.0f} events/s vs best wrapped {best_inert:.0f}"
    )


@pytest.mark.skipif(
    os.environ.get("REPRO_SCALE_SMOKE") != "1"
    and os.environ.get("REPRO_FULL_SCALE") != "1",
    reason="N=10k smoke runs in the CI benchmark job (REPRO_SCALE_SMOKE=1)",
)
def test_10k_churn_query_smoke(benchmark):
    """The paper's headline N: the 10k churn+query benchmark cell.

    Runs the same raised-rate window as the committed trajectory row
    (``bench_window``): the old half-duration window pushed so few events
    that its events/s was fixed-cost noise, unable to catch an engine
    regression.  With tens of thousands of events the throughput gate is
    meaningful, so the cell gets one.
    """
    row = benchmark.pedantic(
        lambda: scale_profile.profile_run(
            10_000, seed=0, **scale_profile.bench_window(10_000)
        ),
        iterations=1,
        rounds=1,
    )
    benchmark.extra_info["row"] = row
    assert row["n_peers"] == 10_000
    assert row["queries"] > 0
    assert row["success"] > 0.8
    assert row["peak_heap"] < row["events"]
    # Throughput-dominated regime: enough events that events/s measures
    # the engine, not per-run fixed costs.
    assert row["events"] > 20_000

    baseline = _baseline_row(10_000)
    if baseline is None:
        pytest.skip("no BENCH_scale.json baseline committed for N=10000")
    factor = float(os.environ.get("REPRO_BENCH_FACTOR", "2.0"))
    floor = float(baseline["events_per_s"]) / factor
    assert row["events_per_s"] >= floor, (
        f"engine regression: N=10k drive ran {row['events_per_s']:.0f} "
        f"events/s, baseline {baseline['events_per_s']:.0f} "
        f"(floor {floor:.0f}); refresh BENCH_scale.json if intentional"
    )


@pytest.mark.skipif(
    os.environ.get("REPRO_SCALE_SMOKE") != "1"
    and os.environ.get("REPRO_FULL_SCALE") != "1",
    reason="N=10k cache cell runs in the CI benchmark job",
)
def test_10k_locality_cache_driver(benchmark):
    """The cache-path cell: route cache on at the paper's headline N.

    Gateway/hot-slice regime so the cache actually warms; gated on
    engine events/sec against the committed ``workload="locality"`` row
    (the cache consult sits on every exact walk's entry, so a slow
    consult shows up here first)."""
    row = benchmark.pedantic(
        lambda: scale_profile.profile_run(
            10_000, seed=0, cache=True, duration=scale_profile.CACHE_DURATION
        ),
        iterations=1,
        rounds=1,
    )
    benchmark.extra_info["row"] = row
    assert row["workload"] == "locality"
    assert row["queries"] > 0
    assert row["success"] > 0.8
    # The cell is pointless if the cache never warms: the hot-slice
    # gateway regime must produce a real hit rate, not a trace amount.
    assert row["hit_rate"] > 0.2
    assert row["peak_heap"] < row["events"]

    baseline = _baseline_row(10_000, workload="locality")
    if baseline is None:
        pytest.skip("no BENCH_scale.json locality baseline committed")
    factor = float(os.environ.get("REPRO_BENCH_FACTOR", "2.0"))
    floor = float(baseline["events_per_s"]) / factor
    assert row["events_per_s"] >= floor, (
        f"cache-path regression: N=10k cached drive ran "
        f"{row['events_per_s']:.0f} events/s, baseline "
        f"{baseline['events_per_s']:.0f} (floor {floor:.0f}); refresh "
        f"BENCH_scale.json if intentional"
    )


@pytest.mark.skipif(
    os.environ.get("REPRO_SCALE_SMOKE") != "1"
    and os.environ.get("REPRO_FULL_SCALE") != "1",
    reason="N=30k bulk-build smoke runs in the CI benchmark job",
)
def test_30k_bulk_smoke(benchmark):
    """PR-CI stand-in for the 100k cell: bulk build + a shortened drive."""
    row = benchmark.pedantic(
        lambda: scale_profile.profile_run(
            30_000, seed=0, duration=scale_profile.DURATION / 2
        ),
        iterations=1,
        rounds=1,
    )
    benchmark.extra_info["row"] = row
    assert row["build"] == "bulk"
    assert row["build_s"] < 10.0
    assert row["queries"] > 0
    assert row["success"] > 0.8


def _first_reconcile_vs_build(n_peers: int) -> dict:
    """Bulk-build a loaded N-peer tree, wrap it, and time its first
    ``reconcile()`` sweep against the build that made the same tables."""
    started = time.perf_counter()
    net = build_loaded(
        "baton", n_peers, 0, scale_profile.DATA_PER_NODE, bulk=True
    )
    build_s = time.perf_counter() - started
    anet = overlays.get("baton").wrap(net, record_events=False, retain_ops=False)
    started = time.perf_counter()
    messages = anet.reconcile()
    reconcile_s = time.perf_counter() - started
    return {
        "n_peers": n_peers,
        "build_s": round(build_s, 4),
        "reconcile_s": round(reconcile_s, 4),
        "reconcile_msgs": messages,
    }


def _assert_reconcile_at_build_speed(benchmark, n_peers: int) -> None:
    row = benchmark.pedantic(
        lambda: _first_reconcile_vs_build(n_peers), iterations=1, rounds=1
    )
    benchmark.extra_info["row"] = row
    assert row["reconcile_msgs"] == n_peers
    assert row["reconcile_s"] <= row["build_s"], (
        f"N={n_peers}: the first reconcile sweep took {row['reconcile_s']:.2f} s, "
        f"longer than the bulk build of the same tables ({row['build_s']:.2f} s)"
    )


@pytest.mark.skipif(
    os.environ.get("REPRO_SCALE_SMOKE") != "1"
    and os.environ.get("REPRO_FULL_SCALE") != "1",
    reason="N=30k reconcile-vs-build gate runs in the CI benchmark job",
)
def test_30k_reconcile_at_bulk_build_speed(benchmark):
    """Reconcile recomputes every link from ground truth, as the bulk build
    does: it must cost no more than that build."""
    _assert_reconcile_at_build_speed(benchmark, 30_000)


def test_suite_row_committed_speedup():
    """The committed trajectory must carry the suite wall-clock row and it
    must document a real win: the pooled suite at least 2x faster than
    sequential.  This is a static gate on the checked-in point (refresh
    with ``python -m repro profile --suite --out BENCH_scale.json``); the
    live re-measurement lives behind REPRO_FULL_SCALE below.
    """
    if not BASELINE_PATH.exists():
        pytest.skip("no BENCH_scale.json committed")
    with open(BASELINE_PATH) as handle:
        payload = json.load(handle)
    if payload.get("schema") != scale_profile.BENCH_SCHEMA:
        pytest.skip("BENCH_scale.json predates the current schema")
    suite = [
        row for row in payload.get("rows", [])
        if row.get("workload") == "suite"
    ]
    assert suite, "BENCH_scale.json is missing the suite wall-clock row"
    row = suite[0]
    assert row["sequential_s"] > 0 and row["cold_s"] > 0 and row["warm_s"] > 0
    # The cold (first-ever) run must never cost more than the pre-engine
    # sequential suite did.
    assert row["cold_s"] <= row["sequential_s"]
    assert row["speedup"] >= 2.0, (
        f"committed suite row documents only {row['speedup']:.2f}x speedup "
        f"at --jobs {row['jobs']} (need >= 2x); investigate the scheduler "
        f"before refreshing the baseline"
    )


@pytest.mark.skipif(
    os.environ.get("REPRO_FULL_SCALE") != "1",
    reason="the live suite seq-vs-pool measurement (several minutes) only "
    "runs under REPRO_FULL_SCALE=1",
)
def test_suite_parallel_speedup_live(benchmark):
    """Re-measure the suite row: sequential vs --jobs 4 at default scale.

    ``suite_benchmark_row`` itself asserts all three passes produce
    byte-identical canonical output; this gate adds the wall-clock floor.
    The floor is below the committed 2x because shared CI machines
    under-deliver cores; the committed row keeps the honest number.
    """
    row = benchmark.pedantic(
        scale_profile.suite_benchmark_row, iterations=1, rounds=1
    )
    benchmark.extra_info["row"] = row
    assert row["speedup"] >= 1.5, (
        f"suite speedup collapsed: --jobs {row['jobs']} only "
        f"{row['speedup']:.2f}x over sequential "
        f"({row['sequential_s']:.0f}s -> {row['warm_s']:.0f}s warm)"
    )


@pytest.mark.skipif(
    os.environ.get("REPRO_FULL_SCALE") != "1",
    reason="the N=100k heavy cell only runs under REPRO_FULL_SCALE=1",
)
def test_100k_bulk_million_event_drive(benchmark):
    """The 100k scale claim: bulk build in seconds, then a ~10⁶-event
    window, gated against the committed trajectory's throughput."""
    row = benchmark.pedantic(
        lambda: scale_profile.profile_run(
            100_000, seed=0, **scale_profile.bench_window(100_000)
        ),
        iterations=1,
        rounds=1,
    )
    benchmark.extra_info["row"] = row
    assert row["build"] == "bulk"
    assert row["build_s"] < 10.0
    assert row["events"] >= 1_000_000
    assert row["success"] > 0.8
    assert row["peak_heap"] < row["events"]

    baseline = _baseline_row(100_000)
    if baseline is None:
        pytest.skip("no BENCH_scale.json baseline committed for N=100000")
    factor = float(os.environ.get("REPRO_BENCH_FACTOR", "2.0"))
    floor = float(baseline["events_per_s"]) / factor
    assert row["events_per_s"] >= floor, (
        f"engine regression at scale: N=100k drive ran "
        f"{row['events_per_s']:.0f} events/s, baseline "
        f"{baseline['events_per_s']:.0f} (floor {floor:.0f}); refresh "
        f"BENCH_scale.json if intentional"
    )


@pytest.mark.skipif(
    os.environ.get("REPRO_FULL_SCALE") != "1",
    reason="the N=100k reconcile-vs-build gate only runs under REPRO_FULL_SCALE=1",
)
def test_100k_reconcile_at_bulk_build_speed(benchmark):
    """The same gate at the 100k scale floor."""
    _assert_reconcile_at_build_speed(benchmark, 100_000)
