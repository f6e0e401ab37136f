"""Run the benchmark over many seeds and record medians and quartiles.

    python3 perfbench/record.py --seeds 1-10 --sets 2 --seconds 25 --out perfbench/baseline.json

For every workload it runs ``perfbench/run.py --trace 0`` once per seed
and set, the sets interleaved (seed 1 set 1, seed 1 set 2, seed 2 set 1,
...), and prints each end-to-end metric's median, quartiles and spread
(Q3 - Q1 over the median) per set, and how far each later set's median
moved from the first's.  It then runs ``--trace 1`` once on the first
seed for the per-layer values.  With ``--out`` it writes all of it, the
machine fingerprint and the layer map to a JSON file.  Exits 1 when any
run failed its checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from wirabench import cli, layers, stats  # noqa: E402
from wirabench.workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {
        "returncode": proc.returncode,
        "result": result,
        "stderr": proc.stderr[-2000:],
        "elapsed_s": time.perf_counter() - start,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    ok = True
    report: Dict[str, Any] = {
        "machine": cli.fingerprint(),
        "run_seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
        "layer_map": [
            {"name": m.name, "unit": m.unit, "better": m.better, "what": m.what,
             "moves": m.moves, "workloads": list(m.workloads)}
            for m in layers.LAYER_METRICS
        ],
    }
    report["sets"] = args.sets
    for name in args.workloads:
        values: List[Dict[str, List[float]]] = [{} for _ in range(args.sets)]
        sessions: List[Dict[str, int]] = []
        for seed in seeds:
            for k in range(args.sets):
                run = run_once(name, seed, args.seconds, 0)
                result = run["result"]
                if run["returncode"] != 0 or result is None or not result["correct"]:
                    ok = False
                    print(f"{name} seed {seed}: FAILED rc={run['returncode']} {run['stderr'][-300:]}", flush=True)
                    if result is None:
                        continue
                sessions.append({
                    "seed": seed,
                    "set": k + 1,
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "elapsed_s": run["elapsed_s"],
                })
                for metric, entry in result["metrics"].items():
                    values[k].setdefault(metric, []).append(entry["value"])
        entry: Dict[str, Any] = {"why": WORKLOADS[name].why, "sessions": sessions, "end_to_end": {}}
        for metric in values[0]:
            per_set = []
            for k, by_metric in enumerate(values):
                summary = stats.summary(by_metric[metric])
                summary["values"] = by_metric[metric]
                per_set.append(summary)
                shift = summary["median"] / per_set[0]["median"] - 1.0
                print(
                    f"{name:15s} {metric:15s} set {k + 1} n={summary['n']:2d} median={summary['median']:.6g} "
                    f"q1={summary['q1']:.6g} q3={summary['q3']:.6g} spread={summary['spread']:.4f} "
                    f"median shift={shift:+.4f}",
                    flush=True,
                )
            entry["end_to_end"][metric] = {
                "sets": per_set,
                "median_shift": [x["median"] / per_set[0]["median"] - 1.0 for x in per_set],
            }
        if sessions:
            elapsed = [x["elapsed_s"] for x in sessions]
            print(f"{name:15s} run wall: median {stats.median(elapsed):.1f} s, max {max(elapsed):.1f} s", flush=True)
        if not args.no_trace:
            run = run_once(name, seeds[0], args.seconds, 1)
            if run["returncode"] != 0 or run["result"] is None:
                ok = False
                print(f"{name} traced run FAILED rc={run['returncode']}", flush=True)
            else:
                entry["per_layer_seed"] = seeds[0]
                entry["per_layer_elapsed_s"] = run["elapsed_s"]
                entry["per_layer"] = {k: v["value"] for k, v in run["result"]["metrics"].items()}
                print(f"{name:15s} traced run ok, overhead {entry['per_layer']['trace.overhead_frac']:.3f}", flush=True)
        report["workloads"][name] = entry
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
