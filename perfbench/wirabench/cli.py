"""Command line: run one workload, check it, print its metrics.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``

``--trace 0`` measures the end-to-end metrics with nothing wrapped, over
a fixed number of units (``Workload.units``).
``--trace 1`` runs the workload's planned units twice on the same
inputs, first untraced and then traced, checks that both give the same
output digest, and reports the per-layer metrics; the span dump, the
per-layer table and the tracing overhead land in ``.perfbench/trace/``.
The last line of standard output is always one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: Environment knobs that would make the program take a non-production
#: path (tracing, sanitizer, reference kernels) or override the job count.
REFUSED = {
    "WIRA_TRACE": lambda v: True,
    "WIRA_SANITIZE": lambda v: True,
    "WIRA_JOBS": lambda v: True,
    "WIRA_BATCH": lambda v: v.strip().lower() in {"0", "false", "no", "off"},
    "WIRA_FAST_LINK": lambda v: v.strip().lower() in {"0", "false", "no", "off"},
}

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPS = 9

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

END_TO_END = (
    ("sessions_per_s", "sessions/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def refused_env(environ: Dict[str, str]) -> List[str]:
    """Names of set environment knobs the benchmark refuses to run under."""
    return [k for k, bad in REFUSED.items() if k in environ and bad(environ[k])]


def fingerprint() -> Dict[str, Any]:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "arch": platform.machine(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "system": platform.system(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def import_seconds(modules: Tuple[str, ...]) -> float:
    """Wall time of a fresh interpreter that imports ``modules`` and exits."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r})\n" + "".join(
        f"import {m}\n" for m in modules
    )
    start = time.perf_counter()
    # No timeout: with one, ``wait`` polls in up to 50 ms sleeps and the
    # measured time snaps to that grid.
    subprocess.run([sys.executable, "-I", "-c", code], check=True, cwd=str(ROOT))
    return time.perf_counter() - start


def measure_setup(workload: Any, seed: int) -> Tuple[float, Dict[str, Any]]:
    """Median import time plus median in-process set-up time."""
    from wirabench.stats import median

    imports = [import_seconds(workload.modules) for _ in range(SETUP_REPS)]
    reps = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        workload.setup_once(seed)
        reps.append(time.perf_counter() - start)
    detail = {"import_s": imports, "setup_reps_s": reps}
    return median(imports) + median(reps), detail


def _model(units: List[Any]) -> Dict[str, float]:
    from wirabench import layers, workloads

    if "wira_sketch" in units[0].extra:
        merged: Dict[str, Any] = {}
        for key in ("wira_sketch", "baseline_sketch"):
            agg = None
            for u in units:
                part = u.extra[key]
                if agg is None:
                    agg = type(part).from_json(part.to_json())
                else:
                    agg.merge(part)
            merged[key] = agg
        return workloads.sketch_figures(merged["wira_sketch"], merged["baseline_sketch"])
    wira = [x for u in units for x in u.wira_ffct]
    base = [x for u in units for x in u.baseline_ffct]
    return layers.model_figures(wira, base)


def timed_run(workload: Any, seed: int, seconds: float) -> Tuple[Dict[str, float], List[Any]]:
    units = []
    for i in range(workload.units(seconds)):
        units.append(workload.unit(seed, i, traced=False))
        print(f"unit {i} (program seed {workload.seed_of(seed, i)}): "
              f"{units[-1].attempted} sessions in {units[-1].host_s:.4f} host s")
    rss = peak_rss_mb()
    setup_s, detail = measure_setup(workload, seed)
    print(f"setup detail: {json.dumps(detail)}")
    metrics = {
        "sessions_per_s": sum(u.attempted for u in units) / sum(u.host_s for u in units),
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    return metrics, units


def _fleet_busy_pass(workload: Any, seed: int) -> Tuple[List[Any], float]:
    """Sharded untraced pass, timing each chunk inside the workers."""
    from repro.fleet import engine

    log = workload.workdir / "chunk-busy.log"
    original = engine.run_chunk

    def timed_chunk(config: Any, chunk_index: int) -> Any:
        begin = time.perf_counter()
        payload = original(config, chunk_index)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{time.perf_counter() - begin}\n")
        return payload

    engine.run_chunk = timed_chunk
    try:
        units = [workload.unit(seed, i, traced=False) for i in range(workload.plan_units)]
    finally:
        engine.run_chunk = original
    busy = sum(float(x) for x in log.read_text().split())
    return units, busy


def traced_run(workload: Any, seed: int) -> Tuple[Dict[str, float], List[Any], List[str]]:
    from wirabench import layers, workloads
    from wirabench.stats import highest_tail, median
    from wirabench.tracer import Patcher, Tracer

    problems: List[str] = []
    extra: Dict[str, float] = {}
    if workload.name == "fleet-long":
        plain, busy = _fleet_busy_pass(workload, seed)
        plain_wall = sum(u.host_s for u in plain)
        extra["fleet.worker_busy_frac"] = busy / (workload.JOBS * plain_wall)
        plain_host = busy
    else:
        plain = [workload.unit(seed, i, traced=False) for i in range(workload.plan_units)]
        plain_host = sum(u.host_s for u in plain)

    tracer = Tracer()
    patcher = Patcher(tracer)
    layers.install(patcher)
    try:
        traced = [workload.unit(seed, i, traced=True) for i in range(workload.plan_units)]
    finally:
        layers.uninstall(patcher)
    traced_host = sum(u.host_s for u in traced)

    plain_digest = workloads.digest(plain)
    traced_digest = workloads.digest(traced)
    print(f"digest untraced {plain_digest}")
    print(f"digest traced   {traced_digest}")
    if plain_digest != traced_digest:
        problems.append("traced run's output digest differs from the untraced run's")

    extra.update(_model(plain))
    extra["trace.overhead_frac"] = traced_host / plain_host - 1.0
    if workload.name == "serve-open":
        ex = plain[0].extra
        sessions = max(1, ex["sessions"])
        extra["serve.ffct_excess_p50_ms"] = median(ex["excess_ms"])
        extra["serve.ffct_excess_tail_ms"] = highest_tail(ex["excess_ms"], 0.90)[1] or 0.0
        extra["serve.gen_late_tail_ms"] = highest_tail(ex["gen_late_ms"], 0.90)[1] or 0.0
        extra["serve.loop_lag_tail_ms"] = highest_tail(ex["loop_lag_ms"], 0.99)[1] or 0.0
        extra["serve.datagrams_per_session"] = ex["datagrams"] / sessions
        extra["serve.repair_frac"] = ex["repaired"] / sessions
    values = layers.reduce(tracer, extra, serve=workload.name == "serve-open")

    trace_dir = OUT / "trace"
    stem = f"{workload.name}-seed{seed}"
    tracer.dump(trace_dir / f"{stem}.spans.gz")
    report = {
        "workload": workload.name,
        "seed": seed,
        "untraced_host_s": plain_host,
        "traced_host_s": traced_host,
        "overhead_frac": extra["trace.overhead_frac"],
        "digest": {"untraced": plain_digest, "traced": traced_digest},
        "spans": tracer.spans,
        "per_name": tracer.per_name(),
        "counts": dict(tracer.counts),
        "layers": values,
    }
    (trace_dir / f"{stem}.layers.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    lines = layers.table(values)
    (trace_dir / f"{stem}.layers.txt").write_text("\n".join(lines) + "\n")
    print(f"per-layer table ({tracer.spans} spans, overhead {extra['trace.overhead_frac']:.3f}):")
    for line in lines:
        print(line)
    print(f"trace output: {trace_dir.relative_to(ROOT)}/{stem}.*")
    return values, plain + traced, problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    refused = refused_env(dict(os.environ))
    if refused:
        print(
            f"refusing to run: {', '.join(refused)} would put the program on a "
            "non-production path or override its job count; unset them",
            file=sys.stderr,
        )
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC.relative_to(ROOT)}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro
    from repro.runtime import settings

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"imported repro from {repro.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from wirabench.workloads import WORKLOADS, digest

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](workdir)
    resolved = {k: str(v) for k, v in vars(settings.current()).items()}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"machine {json.dumps(fingerprint(), sort_keys=True)}")
    print(f"settings {json.dumps(resolved, sort_keys=True)}")
    try:
        if args.trace:
            metrics, units, problems = traced_run(workload, args.seed)
        else:
            metrics, units = timed_run(workload, args.seed, args.seconds)
            problems = []
            model = _model(units[: workload.plan_units])
            print(f"digest {digest(units[: workload.plan_units])}")
            print(
                "model (deterministic per seed): "
                + ", ".join(f"{k}={v:.6g}" for k, v in sorted(model.items()))
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for unit in units:
        problems.extend(unit.problems)
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems
    print(f"sessions attempted {attempted}, failed {failed}, failed_frac {failed / attempted:.6g}")
    if args.trace:
        from wirabench.layers import LAYER_METRICS

        out_metrics = {m.name: {"value": metrics[m.name], "unit": m.unit} for m in LAYER_METRICS}
    else:
        for name, unit in END_TO_END:
            print(f"{name} = {metrics[name]:.6g} {unit} (units {len(units)})")
        out_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": out_metrics,
            }
        )
    )
    return 0 if correct else 1

