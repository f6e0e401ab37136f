import random

import pytest

from wirabench.stats import self_times
from wirabench.tracer import Patcher, Tracer, load_dump


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_online_self_time_matches_the_span_definition():
    tracer = Tracer()
    clock = tracer._clock = FakeClock()
    a, b, c = (tracer.name_id(n) for n in ("a", "b", "c"))
    root = tracer.open(a, None)
    clock.now = 1.0
    child = tracer.open(b, None)
    clock.now = 2.0
    grandchild = tracer.open(a, None)  # same name nested: total counts once
    clock.now = 4.0
    tracer.close(grandchild)
    clock.now = 5.0
    tracer.close(child)
    clock.now = 6.0
    other = tracer.open(c, None)
    clock.now = 9.0
    tracer.close(other)
    clock.now = 10.0
    tracer.close(root)

    cols = tracer.columns
    offline = self_times(cols["start"], cols["end"], cols["parent"])
    assert list(cols["self"]) == pytest.approx(offline)
    rows = tracer.per_name()
    assert rows["a"] == {"calls": 2, "self_s": pytest.approx(3.0 + 2.0), "total_s": pytest.approx(10.0)}
    assert rows["b"]["self_s"] == pytest.approx(2.0)
    assert rows["c"]["total_s"] == pytest.approx(3.0)


class Thing:
    def work(self, x):
        return x + 1

    @classmethod
    def make(cls, x):
        return x * 2


def test_patcher_wraps_attributes_sessions_and_restores(tmp_path):
    tracer = Tracer()
    patcher = Patcher(tracer)
    original_work = Thing.__dict__["work"]
    seen = []
    patcher.method(Thing, "work", "g:Thing.work", after=lambda t, a, k, r: seen.append(r))
    patcher.method(Thing, "make", "g:Thing.make")
    owned = Thing()
    tracer.owner[id(owned)] = tracer.new_session()
    assert owned.work(1) == 2
    assert Thing().work(2) == 3
    assert Thing.make(3) == 6
    assert seen == [2, 3]
    assert list(tracer.columns["session"]) == [1, -1, -1]
    patcher.restore()
    assert Thing.__dict__["work"] is original_work
    assert owned.work(1) == 2 and tracer.spans == 3

    path = tmp_path / "spans.gz"
    tracer.dump(path)
    header, cols = load_dump(path)
    assert header["stored"] == 3 and header["names"] == ["g:Thing.work", "g:Thing.make"]
    assert list(cols["end"]) == list(tracer.columns["end"])


def test_span_cap_keeps_totals():
    tracer = Tracer(cap=2)
    nid = tracer.name_id("x")
    for _ in range(5):
        tracer.close(tracer.open(nid, None))
    assert tracer.spans == 5 and len(tracer.columns["start"]) == 2
    assert tracer.per_name()["x"]["calls"] == 5


def test_counting_random_is_restored_and_replays_identically():
    from wirabench import layers

    tracer = Tracer()
    patcher = Patcher(tracer)
    before = random.Random
    layers.install(patcher)
    try:
        from repro.media.source import LiveSource, StreamProfile

        assert random.Random is not before
        gop = LiveSource(StreamProfile(seed=3)).gop(2)
    finally:
        layers.uninstall(patcher)
    assert random.Random is before
    assert tracer.counts["rng_seeds"] > 0
    from repro.media.source import LiveSource, StreamProfile

    assert LiveSource(StreamProfile(seed=3)).gop(2) == gop
