"""Smoke sizes of every workload, seed behaviour and the CLI's guards.

The smoke subclasses keep each workload's code path and checks and
shrink only its inputs, so the whole file runs in well under a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wirabench import cli, serveload, workloads
from wirabench.workloads import AdverseMatrix, FleetLong, ReplayShort, ServeOpen

BENCH = Path(__file__).resolve().parents[1]


class SmokeReplay(ReplayShort):
    OD_PAIRS = 3
    plan_units = 1


class SmokeFleet(FleetLong):
    OD_PAIRS = 2
    FRAMES = 8
    SCHEMES = ("baseline", "wira")
    plan_units = 1


class SmokeMatrix(AdverseMatrix):
    def config(self, seed, index):
        from repro.experiments.robustness import RobustnessConfig

        return RobustnessConfig(
            seeds=(self.seed_of(seed, index),),
            schemes=("baseline", "wira"),
            schedule_names=("steady", "bursty_ge"),
            fault_names=("none", "cookie_corrupt"),
        )


class SmokeServe(ServeOpen):
    SESSIONS = 8
    SESSION_RATE = 20.0


SMOKE = (SmokeReplay, SmokeFleet, SmokeMatrix, SmokeServe)


@pytest.mark.parametrize("cls", SMOKE, ids=lambda c: c.name)
def test_smoke_unit_passes_its_checks(cls, tmp_path):
    workload = cls(tmp_path)
    workload.setup_once(5)
    unit = workload.unit(5, 0, traced=False)
    assert unit.problems == []
    assert unit.failed == 0 and unit.attempted > 0
    assert unit.host_s > 0
    assert workloads.digest([unit]) == workloads.digest([workload.unit(5, 0, traced=False)])


@pytest.mark.parametrize("cls", SMOKE, ids=lambda c: c.name)
def test_traced_pass_matches_untraced_digest(cls, tmp_path):
    workload = cls(tmp_path)
    values, units, problems = cli.traced_run(workload, 7)
    assert problems == []
    assert all(u.failed == 0 and not u.problems for u in units)
    assert values["trace.overhead_frac"] > -1.0
    assert values["quic.packets_per_session"] > 0
    assert values["simnet.events_per_session"] > 0
    if cls is SmokeServe:
        assert values["serve.datagrams_per_session"] > 0
        assert values["serve.sim_s_per_session"] > 0
    if cls is SmokeFleet:
        assert 0 < values["fleet.worker_busy_frac"] <= 1.0
        assert values["fleet.fold_s"] > 0


def test_a_different_seed_changes_the_inputs(tmp_path):
    replay = SmokeReplay(tmp_path)
    assert replay.config(1, 0) != replay.config(2, 0)
    assert replay.config(1, 0) == replay.config(1, 0)
    assert replay.config(1, 0) != replay.config(1, 1)
    fleet = SmokeFleet(tmp_path)
    assert fleet.config(1, 0).key() != fleet.config(2, 0).key()
    matrix = SmokeMatrix(tmp_path)
    assert matrix.config(1, 0).seeds != matrix.config(2, 0).seeds
    serve = SmokeServe(tmp_path)
    one, two = serve.viewers(1, 0), serve.viewers(2, 0)
    assert [(v.od, v.scheme, v.offset_s) for v in one] != [(v.od, v.scheme, v.offset_s) for v in two]
    assert serve.viewers(1, 0) == one
    digests = set()
    for seed in (1, 2):
        unit = replay.unit(seed, 0, traced=False)
        assert unit.failed == 0 and not unit.problems
        digests.add(workloads.digest([unit]))
    assert len(digests) == 2


def test_an_injected_stall_shows_in_the_sessions_due_behind_it():
    viewers = serveload.plan_viewers(3, 24, 20.0)
    stall_at, stall_s = 0.2, 0.8
    due_in_stall = [v for v in viewers if stall_at <= v.offset_s < stall_at + stall_s - 0.1]
    assert due_in_stall, "the plan must have arrivals during the stall"
    result = serveload.run(3, viewers, stall_at=(stall_at, stall_s))
    assert not result.wire_failures
    t0 = min(r.due for r in result.records)
    stall_end = t0 + stall_at + stall_s
    hit = [r for r in result.records if t0 + stall_at <= r.due < stall_end - 0.1]
    assert len(hit) >= len(due_in_stall)
    for r in hit:
        # Timed from when it was due, a session cannot see its first
        # frame before the loop unblocks.
        assert r.wall_from_due >= stall_end - r.due - 0.01
    # The generator itself was late for every arrival inside the stall.
    assert sum(x > 0.1 for x in result.gen_late) >= len(due_in_stall)


def test_refuses_non_production_knobs():
    assert cli.refused_env({"WIRA_TRACE": "1", "WIRA_BATCH": "1", "WIRA_FAST_LINK": "0"}) == [
        "WIRA_TRACE",
        "WIRA_FAST_LINK",
    ]
    assert cli.refused_env({"WIRA_BATCH": "0", "WIRA_JOBS": "2"}) == ["WIRA_JOBS", "WIRA_BATCH"]
    assert cli.refused_env({}) == []
    env = dict(os.environ, WIRA_SANITIZE="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "replay-short", "--seed", "1", "--seconds", "1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "WIRA_SANITIZE" in proc.stderr
    assert proc.stdout.strip() == ""


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("WIRA_")}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-short", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def _smoke_cli(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "OUT", tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, "replay-short", SmokeReplay)
    for key in list(os.environ):
        if key.startswith("WIRA_"):
            monkeypatch.delenv(key)


def test_result_line_shape(tmp_path, capsys, monkeypatch):
    _smoke_cli(tmp_path, monkeypatch)
    assert cli.main(["--workload", "replay-short", "--seed", "4", "--seconds", "0.1", "--trace", "0"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {"sessions_per_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_failed_output_check_fails_the_run(tmp_path, capsys, monkeypatch):
    from repro.experiments import runner

    real = runner.run_deployment

    def dropping(*args, **kwargs):
        records = real(*args, **kwargs)
        scheme = next(iter(records))
        records[scheme] = records[scheme][:-1]
        return records

    _smoke_cli(tmp_path, monkeypatch)
    monkeypatch.setattr(runner, "run_deployment", dropping)
    assert cli.main(["--workload", "replay-short", "--seed", "4", "--seconds", "0.1", "--trace", "0"]) == 1
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert any(line.startswith("CHECK FAILED") for line in out)


def test_serve_rate_follows_the_programs_cpu_cost(tmp_path, monkeypatch):
    """An injected CPU cost per sim session lowers serve-open's sessions per second.

    The open-loop schedule fixes the campaign's wall time, so the rate is
    taken over process CPU time; a slower sim layer must show in it.
    """
    from repro.cdn.session import StreamingSession

    serve = SmokeServe(tmp_path)
    plain = serve.unit(5, 0, traced=False)
    real = StreamingSession.from_spec

    def slow_from_spec(cls, *args, **kwargs):
        end = time.process_time() + 0.1
        while time.process_time() < end:
            pass
        return real(*args, **kwargs)

    monkeypatch.setattr(StreamingSession, "from_spec", classmethod(slow_from_spec))
    slow = serve.unit(5, 0, traced=False)
    assert workloads.digest([slow]) == workloads.digest([plain])
    # The rest of the campaign's CPU time varies by a few tenths of a second.
    assert slow.host_s - plain.host_s >= 0.5 * 0.1 * slow.attempted
    assert slow.attempted / slow.host_s < 0.7 * plain.attempted / plain.host_s


def test_unit_count_is_fixed_by_the_arguments(tmp_path):
    replay = ReplayShort(tmp_path)
    assert replay.units(0.1) == replay.plan_units
    assert replay.units(25) == replay.units(25) >= replay.plan_units
    assert replay.units(50) > replay.units(25)
