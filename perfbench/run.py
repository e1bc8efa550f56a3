"""Benchmark command: one workload, one fresh process, metrics on stdout.

Run from the repository root::

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 36 --trace 0

A run covers :data:`DEPLOYMENTS` independent deployments of the workload
(sub-seeds of ``--seed``: each its own dataset, tree, network and
arrivals), so no metric hinges on one tree's shape.  ``--trace 0`` runs
rounds (set-up, drive, quiescence) over the deployments in turn — each at
least once, then again while ``--seconds`` allows — and prints the
end-to-end metrics named in ``BENCHMARK.json``: timings are medians over
the rounds; simulated latencies and message counts pool the first round of
every deployment, and every replay of a deployment must reproduce them
exactly.  ``--trace 1`` runs the first deployment once plain and once
under the layer tracer (``perfbench/tracing.py``) and prints the per-layer
metrics.  Every round checks every answer; a wrong answer, a failed
operation, a lost key or an invariant violation makes the run fail.

The human-readable report comes first; the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import scenarios, tracing  # noqa: E402
from repro.util.rng import derive_seed  # noqa: E402
from repro.workloads.concurrent import percentile  # noqa: E402

#: Interpreter start (this file's first line) until ``repro`` is imported.
IMPORT_S = time.perf_counter() - STARTED

#: Independent deployments per run (also the least number of rounds, so
#: ``setup_s`` and every timing are always medians of several).
DEPLOYMENTS = 6


def deployment_seed(seed: int, deployment: int) -> int:
    return derive_seed(seed, "deployment", deployment)


def declared_metrics() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def clean(rounds, strict: bool = True) -> list:
    """Why the rounds are not a correct run (empty when they are).

    Not ``strict``, op errors and invariant violations are left to the
    report (see :attr:`perfbench.scenarios.Workload.strict`).
    """
    problems = []
    first = rounds[0]
    for index, done in enumerate(rounds):
        if done.failures > (0 if strict else done.errors):
            problems.append(f"round {index}: {done.problems} e.g. {done.examples}")
        if done.keys_lost or done.keys_extra:
            problems.append(
                f"round {index}: {done.keys_lost} keys lost, {done.keys_extra} extra"
            )
        if done.ops != done.submitted:
            problems.append(f"round {index}: {done.submitted} submitted, {done.ops} settled")
        if index >= DEPLOYMENTS and done.fingerprint != rounds[index - DEPLOYMENTS].fingerprint:
            problems.append(f"round {index} diverged from its deployment's first round")
    if first.violations and strict:
        problems.append(f"{len(first.violations)} invariant violations: {first.violations[:3]}")
    if first.ops < 1:
        problems.append("no operations ran")
    return problems


def pooled_latencies(rounds) -> list:
    """Every op latency of each deployment's first round, ascending."""
    return sorted(x for done in rounds[:DEPLOYMENTS] for x in done.latencies)


def end_to_end(rounds) -> dict:
    pooled = rounds[:DEPLOYMENTS]
    latencies = pooled_latencies(rounds)
    ops = sum(done.ops for done in pooled)
    return {
        "setup_s": IMPORT_S + statistics.median(r.setup_s for r in rounds),
        "ops_per_s": statistics.median(r.ops / r.drive_s for r in rounds),
        "quiesce_s": statistics.median(r.quiesce_s for r in rounds),
        "total_s": IMPORT_S + statistics.median(r.wall_s for r in rounds),
        "peak_rss_mb": rounds[0].peak_rss_mb,
        "msgs_per_op": sum(done.messages for done in pooled) / ops if ops else 0.0,
        "op_p50_sim": percentile(latencies, 0.50),
        "op_p99_sim": percentile(latencies, 0.99),
    }


def timed_run(workload, seed: int, seconds: float, n_peers: int, duration=None):
    """Rounds over the deployments in turn: each once, then more while the
    next round would still end within ``seconds``."""
    rounds = []
    started = time.perf_counter()
    while True:
        gc.collect()
        done = scenarios.run_round(
            workload,
            deployment_seed(seed, len(rounds) % DEPLOYMENTS),
            n_peers=n_peers,
            duration=duration,
            check_invariants=not rounds,
        )
        rounds.append(done)
        typical = statistics.median(r.wall_s for r in rounds)
        if len(rounds) >= DEPLOYMENTS and time.perf_counter() - started + typical > seconds:
            return rounds


def traced_run(workload, seed: int, n_peers: int, duration=None):
    """The first deployment plain, then traced: (rounds, layer metrics)."""
    seed = deployment_seed(seed, 0)
    gc.collect()
    plain = scenarios.run_round(
        workload, seed, n_peers=n_peers, duration=duration, check_invariants=True
    )
    gc.collect()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced = scenarios.run_round(
            workload,
            seed,
            n_peers=n_peers,
            duration=duration,
            tracer=tracer,
        )
    return [plain, traced], tracing.layer_metrics(tracer, traced, plain, IMPORT_S)


def spread(values) -> str:
    values = list(values)
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4g} q3 {q3:.4g} n={len(values)}"


def report_lines(workload, seed, rounds, metrics, units) -> list:
    first = rounds[0]
    samples = f"n={len(pooled_latencies(rounds))}"
    lines = [
        f"workload {workload.name} seed {seed}: {len(rounds)} round(s), "
        f"import {IMPORT_S:.3f} s, {first.ops} ops in round 0 ({first.report.submitted})"
    ]
    spreads = {
        "setup_s": spread(IMPORT_S + r.setup_s for r in rounds),
        "ops_per_s": spread(r.ops / r.drive_s for r in rounds),
        "quiesce_s": spread(r.quiesce_s for r in rounds),
        "total_s": spread(IMPORT_S + r.wall_s for r in rounds),
        "op_p50_sim": samples,
        "op_p99_sim": samples,
    }
    for name, value in metrics.items():
        lines.append(f"  {name:<28} {value:>14.6g} {units[name]:<8} {spreads.get(name, '')}")
    attempted = sum(r.submitted for r in rounds)
    failed = sum(r.failures for r in rounds)
    queries = sorted(x for done in rounds[:DEPLOYMENTS] for x in done.query_latencies)
    lines += [
        f"  {'op_fail_frac':<28} {failed / attempted if attempted else 0.0:>14.6g} "
        f"ratio    ({failed} of {attempted} ops)",
        f"  {'keys_lost':<28} {sum(r.keys_lost for r in rounds):>14} keys",
        f"  {'invariant violations':<28} "
        f"{len(first.violations) if first.violations is not None else 'n/a':>14}",
    ]
    if queries:
        lines += [
            f"  {'query_p50_sim':<28} {percentile(queries, 0.5):>14.6g} sim",
            f"  {'query_p99_sim':<28} {percentile(queries, 0.99):>14.6g} sim"
            f"      n={len(queries)}",
        ]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(scenarios.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = scenarios.WORKLOADS[args.workload]
    declared = declared_metrics()
    if args.trace:
        rounds, metrics = traced_run(workload, args.seed, scenarios.N_PEERS)
        units = declared["per_layer"]
    else:
        rounds = timed_run(workload, args.seed, args.seconds, scenarios.N_PEERS)
        metrics = end_to_end(rounds)
        units = declared["end_to_end"]
    if set(metrics) != set(units):
        raise SystemExit(
            f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json"
        )
    problems = clean(rounds, workload.strict)
    print("\n".join(report_lines(workload, args.seed, rounds, metrics, units)))
    if rounds[0].violations and not workload.strict:
        print(f"REPORTED: invariant violations {rounds[0].violations[:3]}")
    for problem in problems:
        print(f"WRONG: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(r.submitted for r in rounds),
                "failed": sum(r.failures for r in rounds),
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
