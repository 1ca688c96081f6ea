#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --workloads attribute-switch-small --seeds 1-5

Run from the repository root.  Each run is a separate ``run.py`` process,
one at a time.  For every end-to-end metric the summary gives the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  With ``--trace-seed`` one traced
run per workload adds the per-module numbers.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = (int(x) for x in text.split("-"))
        return list(range(low, high + 1))
    return [int(x) for x in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict, float]:
    """One benchmark process; returns its result, its machine record and
    its wall time."""
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    machine = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("environment "))
    return json.loads(lines[-1]), machine, wall


def summarize(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    spread = (q3 - q1) / median
    out = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        out["bound"] = bound
        out["spread_within_third_of_bound"] = spread < bound / 3
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads:
        runs, walls = [], []
        for seed in args.seeds:
            result, machine, wall = run_once(spec, workload, seed, 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
            runs.append(result)
            walls.append(wall)
            print(f"{workload} seed {seed}: {wall:.1f} s wall", file=sys.stderr)
        entry = {
            "environment": machine,
            "seeds": args.seeds,
            "run_wall_s": summarize(walls, None),
            "end_to_end": {name: summarize([r["metrics"][name]["value"] for r in runs], bounds[name])
                           for name in bounds},
        }
        if args.trace_seed is not None:
            result, _, wall = run_once(spec, workload, args.trace_seed, 1)
            entry["traced_run"] = {"seed": args.trace_seed, "wall_s": wall, "correct": result["correct"],
                                   "per_layer": {k: v["value"] for k, v in result["metrics"].items()}}
        summary[workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload}\t{name}\tmedian {s['median']:.6g}\tspread {s['spread']:.4f}"
                  f"\tbound {s['bound']}", file=sys.stderr)

    text = json.dumps(summary, indent=1, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
