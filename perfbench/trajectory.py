"""Measure one trajectory point: every workload over several seeds.

Run from the repository root::

    python3 perfbench/trajectory.py --seeds 1-10 --out perfbench/trajectory.json

Each seed of each workload is one ``perfbench/run.py`` process, run one at
a time.  The point records, per workload and end-to-end metric, the median
and quartiles over the seeds and the quartile spread as a share of the
median, next to the metric's bound from ``BENCHMARK.json``.  It adds one
traced per-layer split per workload (``--trace 1`` on the first seed), and
the commands that produced all of it.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        "python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    result = json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout.strip() else {}
    if done.returncode != 0 or not result.get("correct"):
        sys.exit(f"{' '.join(command)} failed:\n{done.stdout[-3000:]}\n{done.stderr[-3000:]}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def summary(values: list, bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "bound": bound,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--commit", default="", help="the measured commit, recorded as given")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    seeds = seed_list(args.seeds)
    seconds = spec["run_seconds"]
    workloads = {}
    for workload in (entry["name"] for entry in spec["workloads"]):
        runs = [measure(workload, seed, seconds, 0) for seed in seeds]
        workloads[workload] = {
            "end_to_end": {
                name: summary([run[name] for run in runs], bound)
                for name, bound in bounds.items()
            },
            "per_layer": measure(workload, seeds[0], seconds, 1),
        }
        for name, row in workloads[workload]["end_to_end"].items():
            flag = "" if row["spread"] <= row["bound"] / 3 else "  (above a third of its bound)"
            print(f"{workload:15} {name:12} median {row['median']:<12.6g} "
                  f"spread {row['spread']:.4f} bound {row['bound']}{flag}", flush=True)
    point = {
        "commands": {
            "end_to_end": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} "
                          f"--trace 0, for S in {args.seeds}",
            "per_layer": f"python3 perfbench/run.py --workload W --seed {seeds[0]} "
                         f"--seconds {seconds} --trace 1",
            "this_file": f"python3 perfbench/trajectory.py --seeds {args.seeds} --out {args.out}"
                         f" --commit {args.commit}",
        },
        "commit": args.commit,
        "seeds": seeds,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
