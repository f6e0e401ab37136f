"""Per-layer metrics: what each wraps, and which end-to-end metric it moves.

:data:`LAYER_METRICS` is the single table behind the traced run's
output, ``BENCHMARK.json``'s ``per_layer`` list and the layer map in
``perfbench/baseline.json``.  :func:`install` puts span wrappers on the
program's public functions for one traced pass; :func:`reduce` turns the
spans and counters into the table's values.

Calls are attributed to a session through the objects the session owns:
``StreamingSession._setup`` registers the session's connections,
endpoints, links, controllers and parsers, and a span opened on one of
them carries that session's id; any other span inherits its parent's.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from wirabench.stats import highest_tail, median
from wirabench.tracer import Patcher, Tracer


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    what: str
    moves: str
    workloads: Tuple[str, ...]


ALL = ("replay-short", "fleet-long", "adverse-matrix", "serve-open")

LAYER_METRICS: Tuple[LayerMetric, ...] = (
    LayerMetric("simnet.events_per_session", "count", "lower", "callbacks run by EventLoop.run/run_until and BatchEventLoop.run", "sessions_per_s", ("adverse-matrix", "replay-short")),
    LayerMetric("simnet.kernel_self_s", "s", "lower", "self time of EventLoop.run/run_until and BatchEventLoop.run", "sessions_per_s", ("adverse-matrix", "replay-short")),
    LayerMetric("simnet.link_admits_per_session", "count", "lower", "datagrams offered to links (LinkStats admitted + dropped)", "sessions_per_s", ("adverse-matrix", "fleet-long")),
    LayerMetric("simnet.link_self_s", "s", "lower", "self time of Link.send/send_burst and the link's transmit-finish/deliver callbacks", "sessions_per_s", ("adverse-matrix", "fleet-long")),
    LayerMetric("simnet.link_drop_frac", "ratio", "lower", "LinkStats dropped / offered", "sessions_per_s; sim FFCT tail", ("adverse-matrix", "fleet-long")),
    LayerMetric("quic.packets_per_session", "count", "lower", "Packet.encode calls", "sessions_per_s", ("fleet-long", "replay-short")),
    LayerMetric("quic.codec_self_s", "s", "lower", "self time of Packet.encode/decode, which hold the frame and varint codecs", "sessions_per_s", ("fleet-long", "replay-short")),
    LayerMetric("quic.conn_self_s", "s", "lower", "self time of Connection.datagram_received, _pump, _on_timer, _on_pto and _handle_losses", "sessions_per_s", ("fleet-long",)),
    LayerMetric("quic.cc_self_s", "s", "lower", "self time of every congestion controller's set_initial_*, on_packet_sent, on_packets_acked/lost and on_app_limited", "sessions_per_s", ("fleet-long",)),
    LayerMetric("quic.ack_ranges_per_ack", "count", "lower", "ranges per ACK frame handed to LossRecovery.on_ack_received", "sessions_per_s", ("fleet-long", "replay-short")),
    LayerMetric("quic.ack_self_s", "s", "lower", "self time of LossRecovery.on_ack_received and AckManager.on_packet_received/build_ack", "sessions_per_s", ("fleet-long", "replay-short")),
    LayerMetric("quic.retx_byte_frac", "ratio", "lower", "server bytes_retransmitted / bytes_sent (final_server_stats)", "sim FFCT tail", ("adverse-matrix", "fleet-long")),
    LayerMetric("quic.pto_per_session", "count", "lower", "server pto_count (final_server_stats)", "sim FFCT tail", ("adverse-matrix", "fleet-long")),
    LayerMetric("media.gop_builds_per_session", "count", "lower", "LiveSource.gop calls", "sessions_per_s", ("replay-short", "fleet-long")),
    LayerMetric("media.gop_self_s", "s", "lower", "self time of LiveSource.gop", "sessions_per_s", ("replay-short", "fleet-long")),
    LayerMetric("media.rng_seeds_per_session", "count", "lower", "random.Random seedings made from repro.media code", "sessions_per_s", ("replay-short", "fleet-long")),
    LayerMetric("media.flv_demux_self_s", "s", "lower", "self time of FlvDemuxer.feed", "sessions_per_s", ("replay-short", "fleet-long")),
    LayerMetric("core.cookie_self_s", "s", "lower", "self time of ServerCookieManager.build_frame/open_echoed and encode_hqst/decode_hqst", "sessions_per_s", ("replay-short",)),
    LayerMetric("core.ff_parse_self_s", "s", "lower", "self time of FrameParser.feed", "sessions_per_s", ("replay-short",)),
    LayerMetric("core.init_self_s", "s", "lower", "self time of every InitPolicy's initial_params/observe", "sessions_per_s", ("replay-short", "fleet-long")),
    LayerMetric("core.cookie_hit_frac", "ratio", "higher", "sessions that used a cookie / echoed cookies offered to open_echoed", "model.wira_gain_p50", ("replay-short",)),
    LayerMetric("cdn.session_setup_s", "s", "lower", "inclusive time of StreamingSession.from_spec and _setup", "sessions_per_s", ("replay-short",)),
    LayerMetric("cdn.origin_fetch_self_s", "s", "lower", "self time of Origin.fetch", "sessions_per_s", ("replay-short",)),
    LayerMetric("workload.chain_gen_s", "s", "lower", "inclusive time of Deployment.generate/generate_range and FleetPopulation.chain", "setup_s", ("replay-short", "fleet-long")),
    LayerMetric("fleet.fold_s", "s", "lower", "inclusive time of CampaignAggregate.fold", "sessions_per_s", ("fleet-long",)),
    LayerMetric("fleet.merge_s", "s", "lower", "inclusive time of CampaignAggregate.merge and merge_chunks", "sessions_per_s", ("fleet-long",)),
    LayerMetric("fleet.checkpoint_s", "s", "lower", "inclusive time of save_checkpoint", "sessions_per_s", ("fleet-long",)),
    LayerMetric("fleet.worker_busy_frac", "ratio", "higher", "chunk compute time / (jobs x wall) of the sharded untraced pass", "sessions_per_s", ("fleet-long",)),
    LayerMetric("faults.injected_per_session", "count", "lower", "injected fault actions (SessionResult.fault_summary)", "failed (attempted/failed counts)", ("adverse-matrix",)),
    LayerMetric("serve.sim_slice_tail_ms", "ms", "lower", "highest supported tail (up to p99) of one shard EventLoop.run_until slice", "serve.ffct_excess_tail_ms", ("serve-open",)),
    LayerMetric("serve.sim_s_per_session", "s", "lower", "shard run_until time per session", "serve.ffct_excess_tail_ms", ("serve-open",)),
    LayerMetric("serve.loop_lag_tail_ms", "ms", "lower", "highest supported tail (up to p99) of a 1 ms ticker's overshoot", "serve.ffct_excess_tail_ms", ("serve-open",)),
    LayerMetric("serve.datagrams_per_session", "count", "lower", "Router forwarded + returned datagrams", "serve.ffct_excess_tail_ms", ("serve-open",)),
    LayerMetric("serve.repair_frac", "ratio", "lower", "sessions that sent at least one RESEND request", "serve.ffct_excess_tail_ms; failed", ("serve-open",)),
    LayerMetric("serve.ffct_excess_p50_ms", "ms", "lower", "wall FFCT timed from the due time minus the sim FFCT, median (untraced pass)", "end-to-end latency under load", ("serve-open",)),
    LayerMetric("serve.ffct_excess_tail_ms", "ms", "lower", "same, highest supported tail up to p90 (untraced pass)", "end-to-end latency under load", ("serve-open",)),
    LayerMetric("serve.gen_late_tail_ms", "ms", "lower", "how late the open-loop generator started viewers, highest supported tail up to p90", "validity of the open loop", ("serve-open",)),
    LayerMetric("model.sim_ffct_p50_ms", "ms", "lower", "simulated FFCT of scheme wira, median (deterministic per seed)", "paper headline", ALL),
    LayerMetric("model.sim_ffct_tail_ms", "ms", "lower", "simulated FFCT of scheme wira, highest supported tail up to p90", "paper headline", ALL),
    LayerMetric("model.wira_gain_p50", "ratio", "higher", "1 - p50(wira) / p50(baseline) over the same planned sessions", "paper headline", ALL),
    LayerMetric("model.wira_sessions", "count", "higher", "wira sessions behind the model.* figures", "sample size", ALL),
    LayerMetric("trace.overhead_frac", "ratio", "lower", "traced pass host time / untraced pass host time - 1 on the same inputs (CPU time on serve-open)", "validity of the traced run", ALL),
)

#: Span name prefix -> layer group.  A span named ``group:Label`` adds
#: its self time to ``group``.
SELF_GROUPS = {
    "simnet.kernel": "simnet.kernel_self_s",
    "simnet.link": "simnet.link_self_s",
    "quic.codec": "quic.codec_self_s",
    "quic.conn": "quic.conn_self_s",
    "quic.cc": "quic.cc_self_s",
    "quic.ack": "quic.ack_self_s",
    "media.gop": "media.gop_self_s",
    "media.flv": "media.flv_demux_self_s",
    "core.cookie": "core.cookie_self_s",
    "core.ffparse": "core.ff_parse_self_s",
    "core.init": "core.init_self_s",
    "cdn.origin": "cdn.origin_fetch_self_s",
}

#: Span name prefix -> metric reported as the group's inclusive time.
TOTAL_GROUPS = {
    "cdn.setup": "cdn.session_setup_s",
    "workload.chains": "workload.chain_gen_s",
    "fleet.fold": "fleet.fold_s",
    "fleet.merge": "fleet.merge_s",
    "fleet.checkpoint": "fleet.checkpoint_s",
}

#: Connection entry points the event loop calls; the frame handlers and
#: ``_send_packet`` run beneath them, in the same group, so they are
#: not wrapped separately.
_CONN_METHODS = ("datagram_received", "_pump", "_on_timer", "_on_pto", "_handle_losses")

#: Controller methods that do the work.  ``can_send`` and
#: ``bandwidth_estimate`` are left out: they are one-line reads called
#: several times per packet, where a wrapper would cost more than the
#: call it measures.
_CC_METHODS = (
    "set_initial_window",
    "set_initial_pacing_rate",
    "on_packet_sent",
    "on_packets_acked",
    "on_packets_lost",
    "on_app_limited",
)


def _owned(live: Any) -> List[Any]:
    """The objects of one live session whose method calls carry its id."""
    owned = [
        live.server_conn,
        live.client_conn,
        live.server,
        live.client,
        live.path.forward,
        live.path.reverse,
        live.server.parser,
    ]
    for conn in (live.server_conn, live.client_conn):
        owned += [conn.cc, conn.loss_recovery, conn.ack_manager]
    return owned


def _on_setup(tracer: Tracer, args: tuple, kwargs: dict, live: Any) -> None:
    sid = tracer.owner.get(id(args[0]), -1)
    if sid >= 0:
        for obj in _owned(live):
            tracer.owner[id(obj)] = sid


def _on_from_spec(tracer: Tracer, args: tuple, kwargs: dict, session: Any) -> None:
    tracer.owner[id(session)] = tracer.new_session()


def _on_finalize(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    session, live = args[0], args[1]
    c = tracer.counts
    c["sessions"] += 1
    for link in (live.path.forward, live.path.reverse):
        c["link_admitted"] += link.stats.admitted
        c["link_dropped"] += link.stats.dropped
    stats = result.final_server_stats
    c["bytes_sent"] += stats.bytes_sent
    c["bytes_retransmitted"] += stats.bytes_retransmitted
    c["pto"] += stats.pto_count
    c["used_cookie"] += int(bool(result.used_cookie))
    if result.fault_summary:
        c["faults"] += sum(result.fault_summary.values())
    # Forget the session's objects: their ids may be reused by new ones.
    for obj in [session] + _owned(live):
        tracer.owner.pop(id(obj), None)


def _count_events(tracer: Tracer, args: tuple, kwargs: dict, executed: Any) -> None:
    tracer.counts["events"] += int(executed or 0)


def _count_ack(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["acks"] += 1
    tracer.counts["ack_ranges"] += len(args[1].ranges)


def _count_offered(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["cookies_offered"] += 1


class _CountingRandom(random.Random):
    """``random.Random`` that counts seedings made from repro.media code."""

    counter: Optional[Dict[str, int]] = None

    def seed(self, *args: Any, **kwargs: Any) -> None:  # type: ignore[override]
        counter = _CountingRandom.counter
        if counter is not None:
            frame = sys._getframe(1)
            while frame is not None and (
                frame.f_code.co_filename.endswith("random.py")
                or frame.f_code.co_filename == __file__
            ):
                frame = frame.f_back
            if frame is not None and frame.f_globals.get("__name__", "").startswith("repro.media"):
                counter["rng_seeds"] += 1
        super().seed(*args, **kwargs)


def install(patcher: Patcher) -> None:
    """Wrap every layer boundary the table names; ``patcher.restore()`` undoes it."""
    from repro.cdn.origin import Origin
    from repro.cdn.session import StreamingSession
    from repro.core import transport_cookie
    from repro.core.frame_perception import FrameParser
    from repro.core.schemes import InitPolicy
    from repro.core.transport_cookie import ServerCookieManager
    from repro.fleet import aggregate, checkpoint
    from repro.fleet.aggregate import CampaignAggregate
    from repro.media.flv import FlvDemuxer
    from repro.media.source import LiveSource
    from repro.quic.ack_manager import AckManager
    from repro.quic.cc.base import CongestionController
    from repro.quic.connection import Connection
    from repro.quic.loss_recovery import LossRecovery
    from repro.quic.packet import Packet
    from repro.simnet.batch import BatchEventLoop
    from repro.simnet.engine import EventLoop
    from repro.simnet.link import Link
    from repro.workload.population import Deployment, FleetPopulation

    m = patcher.method
    m(EventLoop, "run", "simnet.kernel:EventLoop.run", after=_count_events)
    m(EventLoop, "run_until", "simnet.kernel:EventLoop.run_until", after=_count_events, keep_durations=True)
    m(BatchEventLoop, "run", "simnet.kernel:BatchEventLoop.run", after=_count_events)
    for attr in ("send", "send_burst", "_finish_transmission", "_deliver"):
        m(Link, attr, f"simnet.link:Link.{attr}")
    m(Packet, "encode", "quic.codec:Packet.encode")
    m(Packet, "decode", "quic.codec:Packet.decode")
    for attr in _CONN_METHODS:
        m(Connection, attr, f"quic.conn:Connection.{attr}")
    patcher.hierarchy(CongestionController, _CC_METHODS, "quic.cc")
    m(LossRecovery, "on_ack_received", "quic.ack:LossRecovery.on_ack_received", after=_count_ack)
    m(AckManager, "on_packet_received", "quic.ack:AckManager.on_packet_received")
    m(AckManager, "build_ack", "quic.ack:AckManager.build_ack")
    m(LiveSource, "gop", "media.gop:LiveSource.gop")
    m(FlvDemuxer, "feed", "media.flv:FlvDemuxer.feed")
    m(ServerCookieManager, "build_frame", "core.cookie:ServerCookieManager.build_frame")
    m(ServerCookieManager, "open_echoed", "core.cookie:ServerCookieManager.open_echoed", after=_count_offered)
    patcher.function(transport_cookie, "encode_hqst", "core.cookie:encode_hqst")
    patcher.function(transport_cookie, "decode_hqst", "core.cookie:decode_hqst")
    m(FrameParser, "feed", "core.ffparse:FrameParser.feed")
    patcher.hierarchy(InitPolicy, ("initial_params", "observe"), "core.init")
    m(StreamingSession, "from_spec", "cdn.setup:StreamingSession.from_spec", after=_on_from_spec)
    m(StreamingSession, "_setup", "cdn.setup:StreamingSession._setup", after=_on_setup)
    m(StreamingSession, "_finalize", "cdn.session:StreamingSession._finalize", after=_on_finalize)
    m(Origin, "fetch", "cdn.origin:Origin.fetch")
    m(Deployment, "generate", "workload.chains:Deployment.generate")
    m(Deployment, "generate_range", "workload.chains:Deployment.generate_range")
    m(FleetPopulation, "chain", "workload.chains:FleetPopulation.chain")
    m(CampaignAggregate, "fold", "fleet.fold:CampaignAggregate.fold")
    m(CampaignAggregate, "merge", "fleet.merge:CampaignAggregate.merge")
    patcher.function(aggregate, "merge_chunks", "fleet.merge:merge_chunks")
    patcher.function(checkpoint, "save_checkpoint", "fleet.checkpoint:save_checkpoint")

    _CountingRandom.counter = patcher.tracer.counts
    patcher.replace(random, "Random", _CountingRandom)


def uninstall(patcher: Patcher) -> None:
    patcher.restore()
    _CountingRandom.counter = None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def reduce(tracer: Tracer, extra: Dict[str, float], serve: bool = False) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value from one traced pass plus ``extra``.

    ``extra`` carries what the workload measured itself (model figures,
    serve latency, worker busy fraction, tracing overhead).  ``serve``
    says the solo ``run_until`` slices are shard sims.  A layer the
    workload never entered reads 0.
    """
    rows = tracer.per_name()
    c = tracer.counts
    sessions = c["sessions"]
    out: Dict[str, float] = {}
    for metric in SELF_GROUPS.values():
        out[metric] = 0.0
    for metric in TOTAL_GROUPS.values():
        out[metric] = 0.0
    for name, row in rows.items():
        group = name.split(":", 1)[0]
        if group in SELF_GROUPS:
            out[SELF_GROUPS[group]] += row["self_s"]
        if group in TOTAL_GROUPS:
            out[TOTAL_GROUPS[group]] += row["total_s"]

    def calls(name: str) -> int:
        return int(rows.get(name, {}).get("calls", 0))

    offered = c["link_admitted"] + c["link_dropped"]
    out["simnet.events_per_session"] = _ratio(c["events"], sessions)
    out["simnet.link_admits_per_session"] = _ratio(offered, sessions)
    out["simnet.link_drop_frac"] = _ratio(c["link_dropped"], offered)
    out["quic.packets_per_session"] = _ratio(calls("quic.codec:Packet.encode"), sessions)
    out["quic.ack_ranges_per_ack"] = _ratio(c["ack_ranges"], c["acks"])
    out["quic.retx_byte_frac"] = _ratio(c["bytes_retransmitted"], c["bytes_sent"])
    out["quic.pto_per_session"] = _ratio(c["pto"], sessions)
    out["media.gop_builds_per_session"] = _ratio(calls("media.gop:LiveSource.gop"), sessions)
    out["media.rng_seeds_per_session"] = _ratio(c["rng_seeds"], sessions)
    out["core.cookie_hit_frac"] = _ratio(c["used_cookie"], c["cookies_offered"])
    out["faults.injected_per_session"] = _ratio(c["faults"], sessions)

    slices = [d * 1e3 for d in tracer.durations.get("simnet.kernel:EventLoop.run_until", [])]
    out["serve.sim_slice_tail_ms"] = (highest_tail(slices, 0.99)[1] or 0.0) if serve else 0.0
    out["serve.sim_s_per_session"] = _ratio(sum(slices) / 1e3, sessions) if serve else 0.0
    for metric in LAYER_METRICS:
        out.setdefault(metric.name, 0.0)
    for key, value in extra.items():
        if key in out:
            out[key] = float(value)
    return {m.name: out[m.name] for m in LAYER_METRICS}


def table(values: Dict[str, float]) -> List[str]:
    """Human-readable per-layer table lines."""
    lines = []
    for m in LAYER_METRICS:
        lines.append(f"  {m.name:34s} {values[m.name]:>14.6g} {m.unit:6s} -> {m.moves}")
    return lines


def model_figures(wira: List[float], baseline: List[float]) -> Dict[str, float]:
    """``model.*`` values from sim FFCT samples in seconds."""
    q, tail_value = highest_tail(wira, 0.90)
    gain = 1.0 - median(wira) / median(baseline) if wira and baseline else 0.0
    return {
        "model.sim_ffct_p50_ms": median(wira) * 1e3 if wira else 0.0,
        "model.sim_ffct_tail_ms": (tail_value or 0.0) * 1e3,
        "model.sim_ffct_tail_q": q or 0.0,
        "model.wira_gain_p50": gain,
        "model.wira_sessions": float(len(wira)),
    }
