"""The ``serve-open`` workload: open-loop viewers over localhost UDP.

Everything runs in one process and one asyncio loop: two in-process
:class:`~repro.serve.shard.ShardServer` workers, one
:class:`~repro.serve.router.Router` and one
:class:`~repro.serve.driver.ServeDriver` (one socket).  A viewer is one
OD chain under one scheme; viewers arrive on a seeded Poisson schedule,
and the sessions of a viewer run back to back because each echoes its
predecessor's cookie.  A session is *due* at its viewer's arrival (the
first) or when its predecessor finished (the rest), and its latency is
timed from then, so a stall anywhere in the process shows up in the
sessions queued behind it.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import WiraConfig
from repro.serve.driver import ServeDriver, WireFailure
from repro.serve.ring import HashRing
from repro.serve.router import Router
from repro.serve.shard import ShardServer
from repro.workload.population import DeploymentConfig, FleetPopulation, PlannedSession

SCHEMES = ("baseline", "wira")
SHARDS = 2
FRAMES = 20
#: Seconds between the generator's start and the first arrival.
LEAD_S = 0.05
#: Period of the benchmark-side ticker whose overshoot is the loop lag.
TICK_S = 0.001


@dataclass(frozen=True)
class Viewer:
    od: int
    scheme: str
    offset_s: float  # arrival, seconds after the generator starts
    chain: Tuple[PlannedSession, ...]


@dataclass
class SessionRecord:
    scheme: str
    od: int
    index: int
    due: float
    sim_ffct: Optional[float]
    wall_from_due: Optional[float]
    completed: bool
    sim_completed: bool
    cookie_delivered: bool
    sim_cookie_pushed: bool
    used_cookie: bool
    sim_used_cookie: bool
    repairs: int

    @property
    def matches_sim(self) -> bool:
        """The wire outcome agrees with the shard sim's summary."""
        return (
            self.completed == self.sim_completed
            and self.cookie_delivered == self.sim_cookie_pushed
            and self.used_cookie == self.sim_used_cookie
        )

    def projection(self) -> Dict[str, Any]:
        """The deterministic part of the outcome (no wall-clock values)."""
        return {
            "scheme": self.scheme,
            "od": self.od,
            "i": self.index,
            "sim_ffct": self.sim_ffct,
            "completed": self.completed,
            "cookie_delivered": self.cookie_delivered,
            "used_cookie": self.used_cookie,
        }


@dataclass
class CampaignResult:
    records: List[SessionRecord]
    planned_sessions: int
    wire_failures: List[str]
    rejected_cookies: int
    gen_late: List[float]
    loop_lag: List[float]
    #: Process CPU seconds from the first arrival to the last completion:
    #: every shard, the router and the driver run in this process, so this
    #: is the program's cost, while the arrival schedule sets the wall time.
    cpu_s: float
    router_datagrams: int


def plan_viewers(seed: int, sessions: int, session_rate: float) -> List[Viewer]:
    """Viewers in arrival order, a pure function of its arguments.

    OD chains are taken in index order, each under every scheme (so the
    schemes replay the same planned sessions), until at least
    ``sessions`` sessions are planned.  Arrivals are a Poisson process
    conditioned on its count and on arrivals at both ends of a window of
    ``planned / session_rate`` seconds (sorted uniform times between
    them), so the offered load is the same for every seed while the
    arrival pattern changes with it.  Viewers with longer chains take
    the earlier arrival times.
    """
    population = FleetPopulation(
        DeploymentConfig(n_od_pairs=sessions, seed=seed, video_frames_per_session=FRAMES)
    )
    chains: List[Tuple[PlannedSession, ...]] = []
    planned = 0
    while planned < sessions:
        chains.append(tuple(population.chain(len(chains))))
        planned += len(SCHEMES) * len(chains[-1])
    pairs = [(od, scheme) for od in range(len(chains)) for scheme in SCHEMES]
    random.Random(f"serve-open-order:{seed}").shuffle(pairs)
    # Longer chains arrive first (a stable sort keeps the shuffle among
    # equals), so the last arrivals are short and the run ends soon
    # after the window instead of whenever one late long chain finishes.
    pairs.sort(key=lambda pair: -len(chains[pair[0]]))
    arrivals = random.Random(f"serve-open-arrivals:{seed}")
    window = planned / session_rate
    # The first and last arrivals sit on the window's ends, so the run's
    # length does not hinge on where the extreme uniform draws fall.
    inner = sorted(arrivals.uniform(0.0, window) for _ in range(len(pairs) - 2))
    offsets = [0.0] + inner + [window]
    return [
        Viewer(od, scheme, offset, chains[od])
        for (od, scheme), offset in zip(pairs, offsets)
    ]


class _TimedDriver(ServeDriver):
    """Keeps each session's absolute first-frame time on the loop clock."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.first_frame_at: Dict[Tuple[str, int, int], Optional[float]] = {}

    async def _run_session_inner(self, loop, flow, planned, scheme_value, *rest):  # type: ignore[override]
        try:
            return await super()._run_session_inner(loop, flow, planned, scheme_value, *rest)
        finally:
            key = (scheme_value, planned.od.od_id, planned.session_index)
            self.first_frame_at[key] = flow.first_frame_at


def _cookie_key(seed: int) -> bytes:
    return hashlib.sha256(b"perfbench-serve-key:%d" % seed).digest()


def _salt(seed: int, shard_id: int) -> bytes:
    return hashlib.sha256(b"perfbench-serve-salt:%d:%d" % (seed, shard_id)).digest()[:16]


async def start_stack(seed: int) -> Tuple[List[ShardServer], Router, _TimedDriver]:
    """Shards, router and driver, listening on localhost."""
    shards: List[ShardServer] = []
    router: Optional[Router] = None
    try:
        addrs = {}
        for shard_id in range(SHARDS):
            shard = ShardServer(
                shard_id=shard_id,
                cookie_key=_cookie_key(seed),
                instance_salt=_salt(seed, shard_id),
                wira_config=WiraConfig(),
            )
            shards.append(shard)
            addrs[f"shard-{shard_id}"] = await shard.start()
        router = Router(HashRing(addrs), addrs)
        front = await router.start()
        driver = _TimedDriver(front, campaign_seed=seed)
        await driver.start()
        return shards, router, driver
    except BaseException:
        await stop_stack(shards, router, None)
        raise


async def stop_stack(
    shards: List[ShardServer], router: Optional[Router], driver: Optional[ServeDriver]
) -> None:
    if driver is not None:
        driver.close()
    if router is not None:
        router.close()
    for shard in shards:
        await shard.close()


async def _ticker(lags: List[float], stop: asyncio.Event) -> None:
    loop = asyncio.get_running_loop()
    while not stop.is_set():
        start = loop.time()
        await asyncio.sleep(TICK_S)
        lags.append(loop.time() - start - TICK_S)


async def run_campaign(seed: int, viewers: List[Viewer], stall_at: Optional[Tuple[float, float]] = None) -> CampaignResult:
    """Run every viewer once; ``stall_at=(t, s)`` blocks the loop ``s`` seconds at ``t``.

    The stall exists for the benchmark's own tests: a blocked loop must
    surface as latency in the sessions that were due during it.
    """
    loop = asyncio.get_running_loop()
    shards, router, driver = await start_stack(seed)
    records: List[SessionRecord] = []
    failures: List[str] = []
    gen_late: List[float] = []
    lags: List[float] = []
    stop = asyncio.Event()
    ticker = asyncio.create_task(_ticker(lags, stop))
    t0 = loop.time() + LEAD_S
    cpu0 = time.process_time()

    async def run_viewer(viewer: Viewer) -> None:
        due = t0 + viewer.offset_s
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        gen_late.append(loop.time() - due)
        od_key = f"od-{viewer.od}"
        for planned in viewer.chain:
            try:
                outcome = await driver.run_session(
                    planned, viewer.scheme, od_key, f"stream-{viewer.od}", FRAMES
                )
            except WireFailure as exc:
                failures.append(str(exc))
                return
            first = driver.first_frame_at.pop(
                (viewer.scheme, planned.od.od_id, planned.session_index), None
            )
            summary = outcome.summary
            records.append(
                SessionRecord(
                    scheme=viewer.scheme,
                    od=viewer.od,
                    index=planned.session_index,
                    due=due,
                    sim_ffct=summary.sim_ffct,
                    wall_from_due=None if first is None else first - due,
                    completed=outcome.result.completed,
                    sim_completed=summary.completed,
                    cookie_delivered=outcome.result.cookie_delivered,
                    sim_cookie_pushed=summary.cookie_pushed,
                    used_cookie=outcome.result.used_cookie,
                    sim_used_cookie=summary.used_cookie,
                    repairs=outcome.retransmit_requests,
                )
            )
            due = loop.time()

    async def stall() -> None:
        assert stall_at is not None
        await asyncio.sleep(max(0.0, t0 + stall_at[0] - loop.time()))
        time.sleep(stall_at[1])

    try:
        tasks = [asyncio.create_task(run_viewer(v)) for v in viewers]
        if stall_at is not None:
            tasks.append(asyncio.create_task(stall()))
        await asyncio.gather(*tasks)
        cpu = time.process_time() - cpu0
    finally:
        stop.set()
        await ticker
        await stop_stack(shards, router, driver)
    return CampaignResult(
        records=records,
        planned_sessions=sum(len(v.chain) for v in viewers),
        wire_failures=failures,
        rejected_cookies=sum(s.cookie_manager.rejected_cookies for s in shards),
        gen_late=gen_late,
        loop_lag=lags,
        cpu_s=cpu,
        router_datagrams=router.stats.get("forwarded", 0) + router.stats.get("returned", 0),
    )


def run(seed: int, viewers: List[Viewer], stall_at: Optional[Tuple[float, float]] = None) -> CampaignResult:
    return asyncio.run(run_campaign(seed, viewers, stall_at))
