"""The benchmark's workloads, one measured round, and the answer oracle.

The benchmark treats ``repro`` as a library.  A round is what one user run
does: generate the dataset, bulk-build the loaded N=10k overlay and wrap
it in the event runtime (*set-up*), drive one open-loop workload window
until every operation has resolved (*drive*), then run the zero-event
``repair_all()`` and ``reconcile()`` sweeps (*quiescence*).  Each phase is
timed from the outside.

Arrivals are independent Poisson streams in simulated time, so each op's
simulated latency runs from its scheduled submission and the generator is
never late; the simulator itself runs as a batch, as fast as one core
allows.  Every input is derived from the workload seed.

Every answer is checked against ground truth as it completes (see
:class:`Oracle`), and every round ends with the stored keys compared
against the loaded keys plus the applied inserts.
"""

from __future__ import annotations

import bisect
import resource
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro import overlays
from repro.core import invariants
from repro.core.cache import DEFAULT_CACHE_SIZE
from repro.core.network import LocalityConfig
from repro.experiments import harness, locality
from repro.sim.faults import FaultPlan, RetryPolicy
from repro.sim.latency import ExponentialLatency
from repro.sim.topology import ClusteredTopology
from repro.util.rng import SeededRng, derive_seed
from repro.workloads import concurrent

#: The paper's headline population and the per-peer dataset size.
N_PEERS = 10_000
DATA_PER_NODE = 20


@dataclass(frozen=True)
class Workload:
    """One named input mix: arrival rates plus the network it runs on."""

    name: str
    why: str
    #: Simulated time units of arrivals (the drive then drains).
    duration: float
    #: :class:`~repro.workloads.concurrent.ConcurrentConfig` rates.
    rates: Dict[str, float]
    #: ``"exponential"``: ExponentialLatency(1); ``"lossy-clustered"``:
    #: a 4-region ClusteredTopology inside a FaultPlan.
    topology: str = "exponential"
    #: With N > 0: the hot-range route cache is on, and exact queries aim
    #: at N hot spots of one peer's share of keys each (:func:`hot_keys`).
    hot_spots: int = 0
    #: Whether op errors and invariant violations fail the run.  Without
    #: it they are reported instead (op errors count as failed ops): heavy
    #: churn rarely leaves a residual routing-table violation behind, a
    #: known defect of the program that no choice of seed should hide.
    #: Wrong answers and lost keys fail every run.
    strict: bool = True


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="lookup",
            why=(
                "reads only (80% exact, 20% range) from uniform entry "
                "peers: the search fast path, engine and bus do the work; "
                "membership, faults and cache stay idle"
            ),
            duration=20.0,
            rates={"query_rate": 300.0, "range_fraction": 0.2, "churn_rate": 0.0},
        ),
        Workload(
            name="churn",
            why=(
                "joins and graceful leaves with an in-window reconcile "
                "every 15 units: link maintenance and restructuring do the "
                "work; search is bypassed"
            ),
            duration=30.0,
            rates={
                "churn_rate": 20.0,
                "join_fraction": 0.5,
                "query_rate": 0.0,
                "maintenance_interval": 15.0,
            },
            strict=False,
        ),
        Workload(
            name="lossy-sessions",
            why=(
                "hot-spot reads via 32 cached gateways plus uniform inserts "
                "over a clustered WAN that drops 3% and duplicates 2%: the "
                "chaos path, retries, pricing, cache and writes"
            ),
            # Walks on this WAN take ~50 units, and a gateway's cache
            # learns an owner only when a walk completes: the window must
            # be several walk latencies long for the cache to warm up.
            duration=150.0,
            rates={
                "query_rate": 35.0,
                "insert_rate": 15.0,
                "churn_rate": 0.0,
                "client_gateways": 32,
            },
            topology="lossy-clustered",
            hot_spots=32,
        ),
    )
}


def make_topology(workload: Workload, seed: int):
    """The workload's transport, seeded from the workload seed."""
    if workload.topology == "exponential":
        rng = SeededRng(derive_seed(seed, "latency"))
        return ExponentialLatency(mean=1.0, rng=rng)
    inner = ClusteredTopology(
        derive_seed(seed, "topology"),
        regions=locality.REGIONS,
        intra_delay=locality.INTRA_DELAY,
        inter_delay=locality.INTER_DELAY,
    )
    return FaultPlan(
        inner,
        seed=derive_seed(seed, "faults"),
        drop_rate=0.03,
        duplicate_rate=0.02,
        retry=RetryPolicy(),
    )


def hot_keys(keys: List[int], spots: int) -> List[int]:
    """``spots`` hot spots spread evenly over the key order.

    Each spot is one peer's share of consecutive keys, so it has about one
    owner.  Spreading the spots over the whole tree keeps the session
    workload from hinging on where one owner happens to sit: a single
    contiguous slice makes every query walk between the same few peers,
    and its costs then swing with the seed by tens of percent.
    """
    ordered = sorted(keys)
    step = len(ordered) // spots
    return [
        key
        for start in range(step // 2, step * spots, step)
        for key in ordered[start : start + DATA_PER_NODE]
    ]


class Oracle:
    """Checks every operation the driver submits, at its completion.

    Installed by shadowing the runtime's public ``submit_*`` methods on
    the one runtime instance, so the program itself is unchanged.  The
    operation's own ``found``/``complete`` flags are not taken as proof:

    * exact search: the reported owner is live, its range contains the
      key, its store has the key iff ``found``, and the key is found
      (every queried key was loaded);
    * range search: the answer is complete and its keys equal the ground
      truth in ``[low, high)``, from a sorted index of the loaded keys
      plus every applied insert;
    * insert: applied; the key joins the ground truth;
    * anything else (join, leave, ...): it succeeded.

    Only operations submitted while :attr:`recording` is on count toward
    the drive's ops and latencies.
    """

    SUBMITS = (
        "submit_search_exact",
        "submit_search_range",
        "submit_insert",
        "submit_join",
        "submit_leave",
        "submit_fail",
        "submit_repair",
    )

    def __init__(self, anet, loaded_index: List[int]):
        self.net = anet.net
        self.loaded_index = loaded_index
        self.inserted: List[int] = []
        self.recording = True
        self.ops = 0
        self.latencies: List[float] = []
        self.query_latencies: List[float] = []
        self.problems: Counter = Counter()
        self.examples: List[str] = []
        checks = {
            "submit_search_exact": self._check_exact,
            "submit_search_range": self._check_range,
            "submit_insert": self._check_insert,
        }
        for name in self.SUBMITS:
            setattr(
                anet,
                name,
                self._watch(getattr(anet, name), checks.get(name, self._check_ok)),
            )

    def _watch(self, submit: Callable, check: Callable) -> Callable:
        def submit_checked(*args, **kwargs):
            future = submit(*args, **kwargs)
            recording = self.recording

            def settle(done) -> None:
                problem = check(done, *args)
                if recording:
                    self.ops += 1
                    self.latencies.append(done.latency)
                    if done.kind.startswith("search."):
                        self.query_latencies.append(done.latency)
                if problem is not None:
                    self.problems[problem] += 1
                    if len(self.examples) < 5:
                        self.examples.append(f"{done.kind}{args}: {problem}")

            future.add_done_callback(settle)
            return future

        return submit_checked

    @staticmethod
    def _error(future) -> Optional[str]:
        if future.succeeded:
            return None
        return f"error:{type(future.error).__name__}"

    def _check_ok(self, future, *_args) -> Optional[str]:
        return self._error(future)

    def _check_exact(self, future, key, *_args) -> Optional[str]:
        error = self._error(future)
        if error is not None:
            return error
        result = future.result
        owner = self.net.peers.get(result.owner)
        if owner is None or not owner.range.contains(key):
            return "wrong-owner"
        if (key in owner.store) != result.found:
            return "wrong-found"
        return None if result.found else "not-found"

    def _check_range(self, future, low, high, *_args) -> Optional[str]:
        error = self._error(future)
        if error is not None:
            return error
        result = future.result
        if not result.complete:
            return "incomplete"
        if sorted(result.keys) != self.truth(low, high):
            return "wrong-keys"
        return None

    def _check_insert(self, future, key, *_args) -> Optional[str]:
        error = self._error(future)
        if error is not None:
            return error
        if not future.result.applied:
            return "not-applied"
        bisect.insort(self.inserted, key)
        return None

    def truth(self, low: int, high: int) -> List[int]:
        """Ground-truth keys in ``[low, high)``, ascending."""
        loaded = self.loaded_index
        inserted = self.inserted
        keys = loaded[bisect.bisect_left(loaded, low) : bisect.bisect_left(loaded, high)]
        if inserted:
            keys = sorted(
                keys
                + inserted[
                    bisect.bisect_left(inserted, low) : bisect.bisect_left(inserted, high)
                ]
            )
        return keys

    def stored_difference(self) -> tuple[int, int]:
        """(keys lost, keys extra): the live peers' stores vs ground truth.

        Compared as multisets, because stores keep duplicates.
        """
        stored = sorted(
            key for peer in self.net.peers.values() for key in peer.store
        )
        expected = sorted(self.loaded_index + self.inserted)
        if stored == expected:
            return 0, 0
        held = Counter(stored)
        wanted = Counter(expected)
        return sum((wanted - held).values()), sum((held - wanted).values())


@dataclass
class Round:
    """One set-up + drive + quiescence, with everything later read off it."""

    setup_s: float
    drive_s: float
    repair_s: float
    reconcile_s: float
    ops: int
    submitted: int
    failures: int
    problems: Dict[str, int]
    examples: List[str]
    latencies: List[float]
    query_latencies: List[float]
    messages: int
    reconcile_msgs: int
    drive_events: int
    events: int
    peak_heap: int
    max_in_flight: int
    keys_lost: int
    keys_extra: int
    violations: Optional[List[str]]
    report: object
    fault_stats: object
    #: Route-cache invalidations over the whole round (drive and sweeps).
    cache_invalidations: int
    #: The process's resident high-water mark when the round ended, MiB.
    peak_rss_mb: float
    #: Wall time from before set-up until after quiescence (a traced
    #: round's window): the phases plus the benchmark's bookkeeping between
    #: them (building the oracle's index, phase checkpoints).
    window_s: float

    @property
    def errors(self) -> int:
        """Ops that raised, as opposed to ops that answered wrongly."""
        return sum(
            count for problem, count in self.problems.items() if problem.startswith("error:")
        )

    @property
    def quiesce_s(self) -> float:
        return self.repair_s + self.reconcile_s

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.drive_s + self.quiesce_s

    @property
    def fingerprint(self) -> tuple:
        """What a replay of the same seed must reproduce exactly."""
        return (
            self.ops,
            self.submitted,
            self.failures,
            self.messages,
            self.reconcile_msgs,
            self.events,
            self.keys_lost,
            sum(self.latencies),
            concurrent.percentile(self.latencies, 0.99),
        )


def setup(workload: Workload, seed: int, n_peers: int = N_PEERS):
    """Inputs, loaded overlay and runtime: ``(anet, loaded keys, query keys)``."""
    keys = harness.loaded_keys(n_peers, DATA_PER_NODE, seed)
    cache = LocalityConfig(cache_size=DEFAULT_CACHE_SIZE) if workload.hot_spots else None
    net = harness.build_loaded(
        "baton", n_peers, seed, DATA_PER_NODE, bulk=True, locality=cache
    )
    anet = overlays.get("baton").wrap(
        net,
        topology=make_topology(workload, seed),
        record_events=False,
        retain_ops=False,
    )
    query_keys = hot_keys(keys, workload.hot_spots) if workload.hot_spots else keys
    return anet, keys, query_keys


def run_round(
    workload: Workload,
    seed: int,
    *,
    n_peers: int = N_PEERS,
    duration: Optional[float] = None,
    check_invariants: bool = False,
    tracer=None,
) -> Round:
    """Set up, drive and quiesce once; check every answer.

    ``tracer`` (a :class:`perfbench.tracing.Tracer`, installed by the
    caller) is started before set-up, told each phase boundary, and
    stopped after quiescence.
    """
    mark = tracer.checkpoint if tracer is not None else (lambda _phase: None)
    if tracer is not None:
        tracer.start()
    opened = time.perf_counter()
    mark("setup")
    started = time.perf_counter()
    anet, keys, query_keys = setup(workload, seed, n_peers)
    setup_s = time.perf_counter() - started

    oracle = Oracle(anet, sorted(keys))
    config = concurrent.ConcurrentConfig(
        duration=duration if duration is not None else workload.duration,
        min_peers=max(8, n_peers // 2),
        **workload.rates,
    )
    mark("drive")
    started = time.perf_counter()
    report = concurrent.run_concurrent_workload(
        anet,
        query_keys,
        config,
        seed=derive_seed(seed, "driver"),
        repair_at_end=False,
        reconcile_at_end=False,
    )
    drive_s = time.perf_counter() - started
    drive_events = anet.sim.executed_count
    oracle.recording = False

    mark("repair")
    started = time.perf_counter()
    anet.repair_all()
    repair_s = time.perf_counter() - started
    messages_before = anet.bus.stats.total
    mark("reconcile")
    started = time.perf_counter()
    anet.reconcile()
    reconcile_s = time.perf_counter() - started
    mark("end")
    window_s = time.perf_counter() - opened
    if tracer is not None:
        tracer.stop()

    keys_lost, keys_extra = oracle.stored_difference()
    violations = invariants.collect_violations(anet.net) if check_invariants else None
    latencies = sorted(oracle.latencies)
    return Round(
        setup_s=setup_s,
        drive_s=drive_s,
        repair_s=repair_s,
        reconcile_s=reconcile_s,
        ops=oracle.ops,
        submitted=sum(report.submitted.values()),
        failures=sum(oracle.problems.values()),
        problems=dict(oracle.problems),
        examples=list(oracle.examples),
        latencies=latencies,
        query_latencies=sorted(oracle.query_latencies),
        messages=report.messages_total,
        reconcile_msgs=anet.bus.stats.total - messages_before,
        drive_events=drive_events,
        events=anet.sim.executed_count,
        peak_heap=anet.sim.peak_queue_len,
        max_in_flight=anet.max_in_flight,
        keys_lost=keys_lost,
        keys_extra=keys_extra,
        violations=violations,
        report=report,
        fault_stats=anet.fault_stats,
        cache_invalidations=anet.net.cache_stats.invalidations,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        window_s=window_s,
    )
