"""The four workloads.

Each workload turns the run seed into a deterministic sequence of
*units* (one call into the program each) and knows how to check a
unit's outputs.  A timed run runs a fixed number of units, a pure
function of the workload and ``--seconds`` (:meth:`Workload.units`), so
its inputs are a pure function of the seed.  The first ``plan_units``
units carry the model figures and the output digest, and are what a
traced run runs twice.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from wirabench.stats import beyond, canonical_digest


@dataclass
class UnitResult:
    """What one unit did, as the benchmark checks and reports it.

    ``host_s`` is the host time the unit cost: wall time, except on
    ``serve-open``, whose wall time is set by its arrival schedule and
    which reports the process CPU time instead.  ``failed`` counts
    sessions that did not complete or failed a check; ``problems`` lists
    the failed output checks.  A session that did not complete, on the
    same path the program always takes for that input, is a failed
    operation but not a wrong output, so it counts in ``failed`` without
    adding a problem.
    """

    attempted: int
    failed: int
    host_s: float
    outcomes: Any  # canonical projection, hashed into the digest
    wira_ffct: List[float] = field(default_factory=list)
    baseline_ffct: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)


#: Median, over 1500 unit seeds of each workload's population, of the
#: mean video bitrate of a unit's planned sessions.
TYPICAL_BITRATE_BPS = 1_660_000.0
#: A unit is accepted when its sessions' mean video bitrate lies within
#: this share of :data:`TYPICAL_BITRATE_BPS`.  Host time per session
#: follows the bytes a session carries (measured: media bytes per host
#: second varied 5% across units whose sessions per second varied 28%),
#: so without this a unit of high-bitrate streams reads as a slow program
#: and the spread across run seeds exceeds the benchmark's bounds.
BITRATE_WINDOW = 0.04
#: Under drift, a unit is also accepted only when the share of its
#: sessions with a drift schedule is within this distance of the
#: configured probability: drifting sessions run without the fast link
#: and were the strongest predictor of a fleet unit's host time.
DRIFT_WINDOW = 0.04
#: Draws before settling for the closest candidate, so a change to the
#: population model can slow the choice but never stop it.
MAX_DRAWS = 500


def unit_seed(workload: str, seed: int, index: int, draw: int = 0) -> int:
    """Candidate seed of unit ``index`` of a run: a pure function of its arguments."""
    return random.Random(f"perfbench:{workload}:{seed}:{index}:{draw}").getrandbits(31) + 1


def mean_bitrate(chains: Sequence[Sequence[Any]]) -> float:
    """Mean video bitrate over the planned sessions of ``chains``."""
    sessions = sum(len(chain) for chain in chains)
    total = sum(len(chain) * chain[0].stream_profile.video_bitrate_bps for chain in chains)
    return total / sessions


def atypicality(chains: Sequence[Sequence[Any]], drift: float) -> float:
    """How far a unit's inputs are from typical, in window units (<= 1 is typical)."""
    score = abs(mean_bitrate(chains) / TYPICAL_BITRATE_BPS - 1.0) / BITRATE_WINDOW
    if drift > 0.0:
        planned = [s for chain in chains for s in chain]
        share = sum(s.schedule is not None for s in planned) / len(planned)
        score = max(score, abs(share - drift) / DRIFT_WINDOW)
    return score


def typical_unit_seed(
    workload: str,
    seed: int,
    index: int,
    chains_of: Callable[[int], Sequence[Sequence[Any]]],
    drift: float = 0.0,
) -> int:
    """The first candidate seed whose unit has typical inputs (see :func:`atypicality`)."""
    best: Optional[Tuple[float, int]] = None
    for draw in range(MAX_DRAWS):
        candidate = unit_seed(workload, seed, index, draw)
        score = atypicality(chains_of(candidate), drift)
        if score <= 1.0:
            return candidate
        if best is None or score < best[0]:
            best = (score, candidate)
    assert best is not None
    return best[1]


class Workload:
    name = ""
    why = ""
    #: Modules a user imports before the first session.
    modules: Tuple[str, ...] = ()
    plan_units = 1
    #: Host seconds of one unit on the 2-core x86_64 reference host;
    #: sizes the unit count of a timed run.
    unit_s = 1.0

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self._seeds: Dict[Tuple[int, int], int] = {}

    def units(self, seconds: float) -> int:
        """Units of a timed run of ``seconds``: fixed, never read off the clock."""
        return max(self.plan_units, round(seconds / self.unit_s))

    def seed_of(self, seed: int, index: int) -> int:
        """The program seed of unit ``index`` of run ``seed`` (memoised)."""
        key = (seed, index)
        if key not in self._seeds:
            self._seeds[key] = self.pick_seed(seed, index)
        return self._seeds[key]

    def pick_seed(self, seed: int, index: int) -> int:
        return unit_seed(self.name, seed, index)

    def unit(self, seed: int, index: int, traced: bool) -> UnitResult:
        raise NotImplementedError

    def setup_once(self, seed: int) -> None:
        """One repetition of the in-process set-up before the first session."""
        raise NotImplementedError


def _outcome_row(scheme: str, planned: Any, result: Any) -> Dict[str, Any]:
    stats = result.final_server_stats
    return {
        "scheme": scheme,
        "od": planned.od.od_id,
        "i": planned.session_index,
        "ffct": result.ffct,
        "completed": result.completed,
        "used_cookie": result.used_cookie,
        "cookie_delivered": result.cookie_delivered,
        "packets_sent": stats.packets_sent,
        "bytes_sent": stats.bytes_sent,
        "bytes_retransmitted": stats.bytes_retransmitted,
    }


# ---------------------------------------------------------------------------


class ReplayShort(Workload):
    name = "replay-short"
    why = (
        "Figure regeneration: serial run_deployment, caches off, 20-frame sessions under "
        "the 4 EVAL_SCHEMES, so per-session set-up, origin GOP synthesis and cookies weigh most"
    )
    modules = ("repro.experiments.runner", "repro.experiments.common")
    #: OD pairs per unit: one full wave of the batched kernel
    #: (``WAVE_CHAINS``); the plan unit holds about 70 wira sessions.
    OD_PAIRS = 16
    plan_units = 1
    unit_s = 11.0

    def config_for(self, program_seed: int) -> Any:
        from repro.workload.population import DeploymentConfig

        return DeploymentConfig(
            n_od_pairs=self.OD_PAIRS,
            seed=program_seed,
            video_frames_per_session=20,
            drift=0.0,
        )

    def pick_seed(self, seed: int, index: int) -> int:
        from repro.workload.population import Deployment

        return typical_unit_seed(
            self.name, seed, index, lambda s: Deployment(self.config_for(s)).generate()
        )

    def config(self, seed: int, index: int) -> Any:
        return self.config_for(self.seed_of(seed, index))

    def setup_once(self, seed: int) -> None:
        from repro.workload.population import Deployment

        Deployment(self.config(seed, 0)).generate()

    def unit(self, seed: int, index: int, traced: bool) -> UnitResult:
        from repro.experiments.common import EVAL_SCHEMES
        from repro.experiments.runner import run_deployment
        from repro.workload.population import Deployment

        config = self.config(seed, index)
        start = time.perf_counter()
        records = run_deployment(config, EVAL_SCHEMES, use_cache=False, jobs=1)
        wall = time.perf_counter() - start
        planned = [s for chain in Deployment(config).generate() for s in chain]
        return _check_records(records, planned, EVAL_SCHEMES, wall)


def _check_records(records: Any, planned: List[Any], schemes: Any, wall: float) -> UnitResult:
    """Every scheme has exactly one completed outcome per planned session, in order."""
    rows: List[Dict[str, Any]] = []
    problems: List[str] = []
    failed = 0
    wira: List[float] = []
    base: List[float] = []
    for scheme in schemes:
        outcomes = records.get(scheme, [])
        if len(outcomes) != len(planned):
            problems.append(f"{scheme.value}: {len(outcomes)} outcomes for {len(planned)} planned sessions")
        for k, spec in enumerate(planned):
            outcome = outcomes[k] if k < len(outcomes) else None
            if outcome is None or outcome.spec != spec or not outcome.result.completed:
                failed += 1
                if outcome is not None and outcome.spec != spec:
                    problems.append(f"{scheme.value}: outcome {k} is for another planned session")
                continue
            rows.append(_outcome_row(scheme.value, spec, outcome.result))
            if outcome.result.ffct is not None:
                if scheme.value == "wira":
                    wira.append(outcome.result.ffct)
                elif scheme.value == "baseline":
                    base.append(outcome.result.ffct)
    return UnitResult(
        attempted=len(planned) * len(schemes),
        failed=failed,
        host_s=wall,
        outcomes=rows,
        wira_ffct=wira,
        baseline_ffct=base,
        problems=problems,
    )


# ---------------------------------------------------------------------------


class FleetLong(Workload):
    name = "fleet-long"
    why = (
        "Fleet campaign of 50-frame sessions, drift 0.5, 5 schemes, jobs=2 with checkpoints: "
        "the per-packet QUIC codec and ACK path dominate, and the pool and merge code runs"
    )
    modules = ("repro.fleet",)
    SCHEMES = ("baseline", "wira", "adaptive", "wira_bbr2", "wira_ar")
    #: 16 one-chain chunks per campaign keep the last chunk's tail on
    #: one worker small (8 chains per unit measured twice the spread).
    OD_PAIRS = 16
    #: One full GOP: the origin serves one GOP per join, so a longer
    #: session could never complete.
    FRAMES = 50
    DRIFT = 0.5
    JOBS = 2
    plan_units = 1
    unit_s = 16.0

    def config_for(self, program_seed: int) -> Any:
        from repro.fleet import FleetConfig
        from repro.workload.population import DeploymentConfig

        return FleetConfig(
            population=DeploymentConfig(
                n_od_pairs=self.OD_PAIRS,
                seed=program_seed,
                video_frames_per_session=self.FRAMES,
                drift=self.DRIFT,
            ),
            schemes=self.SCHEMES,
            chunk_chains=1,
            checkpoint_every=2,
        )

    def pick_seed(self, seed: int, index: int) -> int:
        from repro.workload.population import FleetPopulation

        def chains(program_seed: int) -> List[Any]:
            population = FleetPopulation(self.config_for(program_seed).population)
            return [population.chain(i) for i in range(self.OD_PAIRS)]

        return typical_unit_seed(self.name, seed, index, chains, drift=self.DRIFT)

    def config(self, seed: int, index: int) -> Any:
        return self.config_for(self.seed_of(seed, index))

    def setup_once(self, seed: int) -> None:
        from concurrent.futures import ProcessPoolExecutor
        import multiprocessing

        from repro.workload.population import FleetPopulation

        config = self.config(seed, 0)
        config.key()
        population = FleetPopulation(config.population)
        for i in range(config.population.n_od_pairs):
            population.chain(i)
        with ProcessPoolExecutor(
            max_workers=self.JOBS, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            for future in [pool.submit(os.getpid) for _ in range(self.JOBS)]:
                future.result()

    def unit(self, seed: int, index: int, traced: bool) -> UnitResult:
        from repro.fleet import FleetCampaign
        from repro.workload.population import FleetPopulation

        config = self.config(seed, index)
        unit_dir = self.workdir / f"fleet-{index}-{'traced' if traced else 'plain'}"
        shutil.rmtree(unit_dir, ignore_errors=True)
        unit_dir.mkdir(parents=True)
        campaign = FleetCampaign(
            config,
            checkpoint_path=unit_dir / "checkpoint.json",
            telemetry_dir=unit_dir / "telemetry",
        )
        start = time.perf_counter()
        aggregate = campaign.run(jobs=1 if traced else self.JOBS)
        wall = time.perf_counter() - start
        population = FleetPopulation(config.population)
        planned = sum(len(population.chain(i)) for i in range(config.population.n_od_pairs))
        problems: List[str] = []
        failed = 0
        for scheme in self.SCHEMES:
            agg = aggregate.schemes[scheme]
            if agg.sessions != planned:
                problems.append(f"{scheme}: {agg.sessions} sessions for {planned} planned")
            failed += max(0, planned - agg.completed)
        wira = aggregate.schemes["wira"]
        base = aggregate.schemes["baseline"]
        shutil.rmtree(unit_dir, ignore_errors=True)
        return UnitResult(
            attempted=planned * len(self.SCHEMES),
            failed=failed,
            host_s=wall,
            outcomes=aggregate.to_json(),
            problems=problems,
            extra={"wira_sketch": wira, "baseline_sketch": base},
        )


def sketch_figures(wira: Any, base: Any) -> Dict[str, float]:
    """``model.*`` values from fleet sketches, under the same tail rule."""
    n = wira.ffct_stats.count
    if not n or not base.ffct_stats.count:
        return {}
    q = next((q for q in (0.90, 0.80, 0.75) if beyond(n, q) >= 10), 1.0)
    p50 = wira.ffct_sketch.quantile(0.5)
    return {
        "model.sim_ffct_p50_ms": p50 * 1e3,
        "model.sim_ffct_tail_ms": wira.ffct_sketch.quantile(q) * 1e3,
        "model.sim_ffct_tail_q": q,
        "model.wira_gain_p50": 1.0 - p50 / base.ffct_sketch.quantile(0.5),
        "model.wira_sessions": float(n),
    }


# ---------------------------------------------------------------------------


class AdverseMatrix(Workload):
    name = "adverse-matrix"
    why = (
        "The full robustness matrix (faults x schedules x 7 schemes) on the solo EventLoop "
        "with per-packet Link.send, loss recovery, PTO and fault injection"
    )
    modules = ("repro.experiments.robustness",)
    plan_units = 2
    unit_s = 9.0

    def config(self, seed: int, index: int) -> Any:
        from repro.experiments.robustness import RobustnessConfig

        return RobustnessConfig(seeds=(self.seed_of(seed, index),))

    def setup_once(self, seed: int) -> None:
        from repro.experiments.robustness import enumerate_cells

        enumerate_cells(self.config(seed, 0))

    def unit(self, seed: int, index: int, traced: bool) -> UnitResult:
        from repro.experiments.robustness import enumerate_cells, run_matrix

        config = self.config(seed, index)
        start = time.perf_counter()
        results = run_matrix(config, jobs=1)
        wall = time.perf_counter() - start
        cells = enumerate_cells(config)
        problems: List[str] = []
        if len(results) != len(cells):
            problems.append(f"{len(results)} results for {len(cells)} cells")
        failed = 0
        wira: List[float] = []
        base: List[float] = []
        for cell, result in zip(cells, results):
            if (result.scheme, result.fault, result.schedule, result.seed) != cell:
                problems.append(f"result out of cell order at {cell}")
            failed += int(not result.primed_completed) + int(not result.completed)
            if result.ffct is not None:
                if result.scheme.value == "wira":
                    wira.append(result.ffct)
                elif result.scheme.value == "baseline":
                    base.append(result.ffct)
        failed += 2 * max(0, len(cells) - len(results))
        return UnitResult(
            attempted=2 * len(cells),
            failed=failed,
            host_s=wall,
            outcomes=[r.to_json() for r in results],
            wira_ffct=wira,
            baseline_ffct=base,
            problems=problems,
        )


# ---------------------------------------------------------------------------


class ServeOpen(Workload):
    name = "serve-open"
    why = (
        "Real localhost UDP, 2 in-process shards, router and driver, viewers arriving "
        "open-loop at 7.5 sessions/s: sim CPU work delays other flows' replay"
    )
    modules = ("repro.serve.shard", "repro.serve.router", "repro.serve.driver")
    SESSIONS = 112
    SESSION_RATE = 7.5
    plan_units = 1
    #: Wall seconds: the arrival window is 15 s.
    unit_s = 17.0

    def viewers_for(self, program_seed: int) -> Any:
        from wirabench import serveload

        return serveload.plan_viewers(program_seed, self.SESSIONS, self.SESSION_RATE)

    def pick_seed(self, seed: int, index: int) -> int:
        return typical_unit_seed(
            self.name, seed, index, lambda s: [v.chain for v in self.viewers_for(s)]
        )

    def viewers(self, seed: int, index: int) -> Any:
        return self.viewers_for(self.seed_of(seed, index))

    def setup_once(self, seed: int) -> None:
        import asyncio

        from wirabench import serveload

        self.viewers(seed, 0)

        async def cycle() -> None:
            shards, router, driver = await serveload.start_stack(self.seed_of(seed, 0))
            await serveload.stop_stack(shards, router, driver)

        asyncio.run(cycle())

    def unit(self, seed: int, index: int, traced: bool) -> UnitResult:
        from wirabench import serveload

        result = serveload.run(self.seed_of(seed, index), self.viewers(seed, index))
        return serve_unit_result(result)


def serve_unit_result(result: Any) -> UnitResult:
    records = sorted(result.records, key=lambda r: (r.scheme, r.od, r.index))
    problems = [f"wire failure: {f}" for f in result.wire_failures]
    if result.rejected_cookies:
        problems.append(f"{result.rejected_cookies} cookies rejected by shards")
    problems += [
        f"{r.scheme} od {r.od} session {r.index}: wire outcome differs from the sim's"
        for r in records
        if not r.matches_sim
    ]
    failed = sum(not (r.completed and r.matches_sim) for r in records)
    failed += result.planned_sessions - len(records)
    excess = [
        (r.wall_from_due - r.sim_ffct) * 1e3
        for r in records
        if r.sim_ffct is not None and r.wall_from_due is not None
    ]
    return UnitResult(
        attempted=result.planned_sessions,
        failed=failed,
        host_s=result.cpu_s,
        outcomes=[r.projection() for r in records],
        wira_ffct=[r.sim_ffct for r in records if r.scheme == "wira" and r.sim_ffct is not None],
        baseline_ffct=[r.sim_ffct for r in records if r.scheme == "baseline" and r.sim_ffct is not None],
        problems=problems,
        extra={
            "excess_ms": excess,
            "gen_late_ms": [x * 1e3 for x in result.gen_late],
            "loop_lag_ms": [x * 1e3 for x in result.loop_lag],
            "datagrams": result.router_datagrams,
            "repaired": sum(r.repairs > 0 for r in records),
            "sessions": len(records),
        },
    )


WORKLOADS: Dict[str, Callable[[Path], Workload]] = {
    w.name: w for w in (ReplayShort, FleetLong, AdverseMatrix, ServeOpen)
}


def digest(units: List[UnitResult]) -> str:
    return canonical_digest([u.outcomes for u in units])
