"""The benchmark's own tests, on small networks and short windows."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from perfbench import run, scenarios, tracing
from repro.core import search
from repro.core.results import RangeSearchResult, SearchResult
from repro.workloads.concurrent import percentile

ROOT = Path(__file__).resolve().parent.parent
SMALL = {"n_peers": 200, "duration": 4.0}


def small_round(name: str, seed: int, **kwargs):
    return scenarios.run_round(scenarios.WORKLOADS[name], seed, **SMALL, **kwargs)


def deterministic(done) -> tuple:
    return (
        done.ops,
        done.messages / done.ops,
        percentile(done.latencies, 0.5),
        percentile(done.latencies, 0.99),
        done.keys_lost,
        done.fingerprint,
    )


@pytest.mark.parametrize("name", sorted(scenarios.WORKLOADS))
def test_same_seed_same_metrics_and_another_seed_differs(name):
    first = small_round(name, 5, check_invariants=True)
    again = small_round(name, 5)
    other = small_round(name, 6)
    assert run.clean([first, again]) == []
    assert deterministic(first) == deterministic(again)
    assert deterministic(first) != deterministic(other)


def test_lenient_workload_reports_errors_and_violations_but_not_wrong_answers():
    done = small_round("churn", 5, check_invariants=True)
    broken = dataclasses.replace(
        done,
        failures=1,
        problems={"error:ProtocolError": 1},
        violations=["(3,1) has children but incomplete routing tables"],
    )
    assert run.clean([broken], strict=False) == []
    assert len(run.clean([broken], strict=True)) == 2
    wrong = dataclasses.replace(done, failures=1, problems={"wrong-keys": 1})
    assert run.clean([wrong], strict=False) != []
    lost = dataclasses.replace(done, keys_lost=1)
    assert run.clean([lost], strict=False) != []


def test_oracle_flags_falsified_answers():
    anet, keys, _ = scenarios.setup(scenarios.WORKLOADS["lookup"], 3, n_peers=64)
    oracle = scenarios.Oracle(anet, sorted(keys))
    exact_steps = anet._search_exact_steps
    range_steps = anet._search_range_steps

    def lying_exact(future, start, key):
        honest = yield from exact_steps(future, start, key)
        return SearchResult(found=not honest.found, owner=honest.owner, trace=honest.trace)

    def lying_range(future, start, low, high):
        honest = yield from range_steps(future, start, low, high)
        return RangeSearchResult(
            owners=honest.owners, keys=honest.keys[1:], trace=honest.trace, complete=True
        )

    anet.submit_search_exact(keys[0])
    anet.submit_search_range(min(keys), max(keys))
    anet.drain()
    assert oracle.problems == {}

    anet._search_exact_steps = lying_exact
    anet._search_range_steps = lying_range
    anet.submit_search_exact(keys[0])
    anet.submit_search_range(min(keys), max(keys))
    anet.drain()
    assert oracle.problems == {"wrong-found": 1, "wrong-keys": 1}

    assert oracle.stored_difference() == (0, 0)
    peer = next(peer for peer in anet.net.peers.values() if len(peer.store))
    peer.store.delete(next(iter(peer.store)))
    assert oracle.stored_difference() == (1, 0)


def test_self_time_is_span_minus_nested_spans():
    ticks = iter([0.0, 0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 10.0, 11.0, 12.0, 20.0, 20.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))  # reads one tick
    tracer.start()  # 0
    tracer.enter("a")  # 1
    tracer.enter("b")  # 2
    tracer.exit()  # 5: b = 3
    tracer.enter("c")  # 6
    tracer.exit()  # 7: c = 1
    tracer.exit()  # 10: a = 9 - 3 - 1 = 5
    tracer.enter("b")  # 11
    tracer.exit()  # 12: b += 1
    assert tracer.stop() == 20.0  # root = 20 - 9 - 1 = 10
    assert dict(tracer.self_s) == {"a": 5.0, "b": 4.0, "c": 1.0, tracing.ROOT: 10.0}
    assert sum(tracer.self_s.values()) == tracer.wall_s
    assert tracer.inclusive_s["a"] == 9.0


def test_generator_proxy_keeps_protocol_semantics():
    def steps():
        received = yield 1
        try:
            yield received + 1
        except KeyError:
            yield "handled"
        return "done"

    tracer = tracing.Tracer()
    proxied = tracer.generator("search", steps())
    assert next(proxied) == 1
    assert proxied.send(41) == 42
    assert proxied.throw(KeyError()) == "handled"
    with pytest.raises(StopIteration) as stop:
        next(proxied)
    assert stop.value.value == "done"
    assert tracer.entries["search"] == 4


def test_traced_run_reports_every_declared_layer_metric():
    declared = run.declared_metrics()["per_layer"]
    rounds, metrics = run.traced_run(scenarios.WORKLOADS["lossy-sessions"], 4, **SMALL)
    assert run.clean(rounds) == []
    assert set(metrics) == set(declared)
    assert metrics["faults.judged"] > 0 and metrics["bus.messages"] > 0
    assert metrics["keys.calls"] == 2
    assert search.hop_candidates.__module__ == "repro.core.search"
    assert not hasattr(search.hop_candidates, "_trace_layer")  # restored


def test_missed_call_site_fails_loudly():
    held = [search.hop_candidates]  # a call site the wrappers cannot reach
    with pytest.raises(tracing.TraceError, match="hop_candidates"):
        with tracing.instrument(tracing.Tracer()):
            pass
    assert held[0] is search.hop_candidates  # everything was restored


def test_timed_run_reports_every_declared_end_to_end_metric():
    rounds = run.timed_run(scenarios.WORKLOADS["churn"], 2, 0.0, **SMALL)
    assert len(rounds) == run.DEPLOYMENTS
    assert run.clean(rounds) == []
    metrics = run.end_to_end(rounds)
    assert set(metrics) == set(run.declared_metrics()["end_to_end"])
    assert all(value > 0 for value in metrics.values())


def test_benchmark_json_matches_the_code_and_the_map():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in scenarios.WORKLOADS.items()
    }
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    per_layer = [m["name"] for m in spec["per_layer"]]
    layer_map = json.loads((ROOT / "perfbench" / "map.json").read_text())
    assert per_layer == list(layer_map["per_layer"])
