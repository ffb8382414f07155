"""Trace analysis: human-readable summaries and metric replay.

Two consumers share this module:

* ``repro trace`` renders :class:`TraceSummary` — the relocation
  timeline, per-link traffic, barrier-stall breakdown, planner and
  monitor activity of a recorded run.
* :meth:`repro.engine.metrics.RunMetrics.from_trace` replays a trace's
  events through :func:`replay_aggregates` to rebuild the aggregate
  counters independently of the live run.  Because every trace event is
  emitted at the exact code point where the corresponding counter
  increments, the replayed aggregates match the live ``RunMetrics``
  *exactly* (including floating-point accumulation order).

To keep :mod:`repro.obs` importable without the engine, everything here
returns plain dicts/dataclasses; ``from_trace`` does the final
conversion on the engine side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.obs import events as ev
from repro.obs.exporters import events_only


def query_records(
    records: Iterable[dict[str, Any]], query_id: str
) -> list[dict[str, Any]]:
    """One query's slice of a concurrent-workload trace.

    Keeps every record that is tagged with ``query_id`` *or* carries no
    ``query_id`` at all.  Untagged records are shared context — frame
    records, monitoring estimates, fault-timeline boundaries — that each
    query's replay must still see (e.g. ``fault.host_up`` increments
    ``host_downtime_seconds`` for every query of the run, exactly as the
    live :meth:`~repro.engine.runtime.Runtime.finalize_metrics` copies
    the shared injector's downtime into every query's metrics).

    Feeding the slice to :func:`replay_aggregates` (or
    :meth:`repro.engine.metrics.RunMetrics.from_trace`) rebuilds that
    query's ``RunMetrics`` bit-exactly.
    """
    return [
        record
        for record in records
        if record.get("query_id", query_id) == query_id
    ]


def replay_aggregates(records: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Rebuild :class:`~repro.engine.metrics.RunMetrics` fields from a trace.

    Accepts the full record list of a JSONL trace (header/footer are
    ignored).  Floats are accumulated in event order with plain ``+=``,
    mirroring how the live counters accrue, so the result is
    bit-identical to the run that produced the trace.
    """
    agg: dict[str, Any] = {
        "algorithm": "",
        "num_servers": 0,
        "images": 0,
        "arrival_times": [],
        "relocations": 0,
        "relocation_events": [],
        "planner_runs": 0,
        "placements_installed": 0,
        "barrier_rounds": 0,
        "barrier_stall_seconds": 0.0,
        "probes_sent": 0,
        "probe_bytes": 0.0,
        "forwarded_messages": 0,
        "bytes_on_wire": 0.0,
        "truncated": False,
        "transfers": 0,
        "local_deliveries": 0,
        "passive_measurements": 0,
        "piggyback_entries_merged": 0,
        "retransmissions": 0,
        "dropped_bytes": 0.0,
        "abandoned_messages": 0,
        "aborted_relocations": 0,
        "host_downtime_seconds": 0.0,
        "probe_timeouts": 0,
        "planner_fallbacks": 0,
        "planner_rounds": 0,
        "planner_candidates": 0,
        "planner_links_queried": 0,
    }
    for event in events_only(records):
        etype = event["type"]
        if etype == ev.LINK_TRANSFER:
            agg["transfers"] += 1
            agg["bytes_on_wire"] += event["wire_bytes"]
        elif etype == ev.MESSAGE_SEND:
            if event.get("transport") == "local":
                agg["local_deliveries"] += 1
        elif etype == ev.MESSAGE_FORWARD:
            agg["forwarded_messages"] += 1
        elif etype == ev.ARRIVAL:
            agg["arrival_times"].append(event["t"])
        elif etype == ev.RELOCATION:
            agg["relocations"] += 1
            agg["relocation_events"].append(
                {
                    "time": event["t"],
                    "actor": event["actor"],
                    "old_host": event["old_host"],
                    "new_host": event["new_host"],
                }
            )
        elif etype == ev.PLANNER_RUN:
            agg["planner_runs"] += 1
        elif etype == ev.PLANNER_SEARCH:
            agg["planner_rounds"] += event.get("rounds", 0)
            agg["planner_candidates"] += event.get("candidates", 0)
            agg["planner_links_queried"] += event.get("links", 0)
        elif etype == ev.PLACEMENT_INSTALL:
            # The live run counts a round when it starts, so a round
            # still in flight at the end counts here too; its stall only
            # accrues once the barrier.round span closes.
            agg["placements_installed"] += 1
            agg["barrier_rounds"] += 1
        elif etype == ev.BARRIER_ROUND:
            agg["barrier_stall_seconds"] += event["dur"]
        elif etype == ev.MONITOR_PROBE:
            agg["probes_sent"] += 1
            agg["probe_bytes"] += event["bytes"]
        elif etype == ev.MONITOR_PASSIVE:
            agg["passive_measurements"] += 1
        elif etype == ev.MONITOR_PIGGYBACK:
            agg["piggyback_entries_merged"] += event["merged"]
        elif etype == ev.NET_RETRANSMIT:
            agg["retransmissions"] += 1
        elif etype == ev.NET_DROP:
            agg["dropped_bytes"] += event["bytes"]
        elif etype == ev.NET_ABANDON:
            agg["abandoned_messages"] += 1
        elif etype == ev.RELOCATION_ABORT:
            agg["aborted_relocations"] += 1
        elif etype == ev.FAULT_HOST_UP:
            agg["host_downtime_seconds"] += event["downtime"]
        elif etype == ev.MONITOR_PROBE_TIMEOUT:
            agg["probe_timeouts"] += 1
        elif etype == ev.PLANNER_FALLBACK:
            agg["planner_fallbacks"] += 1
        elif etype == ev.RUN_META:
            agg["algorithm"] = event["algorithm"]
            agg["num_servers"] = event["num_servers"]
            agg["images"] = event["images"]
        elif etype == ev.RUN_END:
            agg["truncated"] = event["truncated"]
    return agg


# -- human-readable summary -------------------------------------------------
@dataclass
class TraceSummary:
    """What ``repro trace`` reports about one recorded run."""

    meta: dict[str, Any] = field(default_factory=dict)
    #: (time, actor, old_host, new_host, state_bytes) in order.
    relocations: list[tuple[float, str, str, str, float]] = field(
        default_factory=list
    )
    #: (src_host, dst_host) -> [transfers, wire_bytes, busy_seconds].
    link_traffic: dict[tuple[str, str], list[float]] = field(
        default_factory=dict
    )
    #: (start, dur, plan_seq) per barrier round.
    barrier_rounds: list[tuple[float, float, int]] = field(
        default_factory=list
    )
    planner_runs: int = 0
    planner_searches: int = 0
    candidates_evaluated: int = 0
    #: estimate quality -> count ("fresh"/"stale"/"default").
    estimate_quality: dict[str, int] = field(default_factory=dict)
    probes_sent: int = 0
    forwarded: int = 0
    arrivals: int = 0
    completion_time: float = float("nan")
    truncated: bool = False
    counters: dict[str, float] = field(default_factory=dict)
    #: Resilience counters (non-zero only for fault-injected runs).
    retransmissions: int = 0
    dropped_bytes: float = 0.0
    abandoned_messages: int = 0
    aborted_relocations: int = 0
    probe_timeouts: int = 0
    planner_fallbacks: int = 0
    host_downtime_seconds: float = 0.0
    #: (time, event_type, detail) fault timeline in order.
    fault_timeline: list[tuple[float, str, str]] = field(default_factory=list)
    #: Trace record type -> count over the whole stream (header/footer
    #: excluded).  What the run actually spent its events on.
    event_histogram: dict[str, int] = field(default_factory=dict)

    @property
    def barrier_stall_seconds(self) -> float:
        return sum(dur for _, dur, _ in self.barrier_rounds)


def summarize_records(records: Iterable[dict[str, Any]]) -> TraceSummary:
    """Digest trace records into a :class:`TraceSummary`."""
    summary = TraceSummary()
    histogram = summary.event_histogram
    for record in records:
        etype = record.get("type")
        if etype is not None and not etype.startswith("trace."):
            histogram[etype] = histogram.get(etype, 0) + 1
        if etype == "trace.header":
            summary.meta = dict(record.get("meta", {}))
        elif etype == "trace.footer":
            summary.counters = dict(record.get("counters", {}))
        elif etype == ev.RUN_META:
            meta = {k: v for k, v in record.items() if k not in ("type", "t")}
            summary.meta.update(meta)
        elif etype == ev.RELOCATION:
            summary.relocations.append(
                (
                    record["t"],
                    record["actor"],
                    record["old_host"],
                    record["new_host"],
                    record.get("state_bytes", 0.0),
                )
            )
        elif etype == ev.LINK_TRANSFER:
            key = (record["src_host"], record["dst_host"])
            entry = summary.link_traffic.setdefault(key, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += record["wire_bytes"]
            entry[2] += record.get("dur", 0.0)
        elif etype == ev.BARRIER_ROUND:
            summary.barrier_rounds.append(
                (record["t"], record["dur"], record.get("plan_seq", -1))
            )
        elif etype == ev.PLANNER_RUN:
            summary.planner_runs += 1
        elif etype == ev.PLANNER_SEARCH:
            summary.planner_searches += 1
            summary.candidates_evaluated += record.get("candidates", 0)
        elif etype == ev.MONITOR_ESTIMATE:
            quality = record.get("quality", "?")
            summary.estimate_quality[quality] = (
                summary.estimate_quality.get(quality, 0) + 1
            )
        elif etype == ev.MONITOR_PROBE:
            summary.probes_sent += 1
        elif etype == ev.MESSAGE_FORWARD:
            summary.forwarded += 1
        elif etype == ev.ARRIVAL:
            summary.arrivals += 1
            summary.completion_time = record["t"]
        elif etype == ev.NET_RETRANSMIT:
            summary.retransmissions += 1
        elif etype == ev.NET_DROP:
            summary.dropped_bytes += record.get("bytes", 0.0)
        elif etype == ev.NET_ABANDON:
            summary.abandoned_messages += 1
        elif etype == ev.RELOCATION_ABORT:
            summary.aborted_relocations += 1
        elif etype == ev.MONITOR_PROBE_TIMEOUT:
            summary.probe_timeouts += 1
        elif etype == ev.PLANNER_FALLBACK:
            summary.planner_fallbacks += 1
        elif etype in (ev.FAULT_LINK_DOWN, ev.FAULT_LINK_UP):
            summary.fault_timeline.append(
                (record["t"], etype, f"{record.get('a')}~{record.get('b')}")
            )
        elif etype in (ev.FAULT_HOST_DOWN, ev.FAULT_HOST_UP):
            if etype == ev.FAULT_HOST_UP:
                summary.host_downtime_seconds += record.get("downtime", 0.0)
            summary.fault_timeline.append(
                (record["t"], etype, str(record.get("host")))
            )
        elif etype == ev.RUN_END:
            summary.truncated = record.get("truncated", False)
            summary.completion_time = record.get(
                "completion_time", summary.completion_time
            )
    return summary


def format_trace_summary(summary: TraceSummary, max_rows: int = 20) -> str:
    """Render a :class:`TraceSummary` as the ``repro trace`` report."""
    lines: list[str] = []
    meta = summary.meta
    if meta:
        head = ", ".join(
            f"{k}={meta[k]}"
            for k in ("algorithm", "num_servers", "images", "tree_shape")
            if k in meta
        )
        lines.append(f"run: {head}" if head else f"run: {meta}")
    lines.append(
        f"arrivals: {summary.arrivals}"
        f" (completion {summary.completion_time:.1f}s"
        f"{', TRUNCATED' if summary.truncated else ''})"
    )

    lines.append("")
    lines.append(f"relocation timeline ({len(summary.relocations)} moves):")
    shown = summary.relocations[:max_rows]
    for t, actor, old, new, state_bytes in shown:
        lines.append(
            f"  {t:10.1f}s  {actor:<10} {old} -> {new}"
            f"  ({state_bytes / 1024.0:.0f} KiB state)"
        )
    if len(summary.relocations) > len(shown):
        lines.append(f"  ... {len(summary.relocations) - len(shown)} more")
    if not summary.relocations:
        lines.append("  (none)")

    lines.append("")
    lines.append(f"per-link traffic ({len(summary.link_traffic)} links):")
    ranked = sorted(
        summary.link_traffic.items(), key=lambda kv: kv[1][1], reverse=True
    )
    for (src, dst), (count, nbytes, busy) in ranked[:max_rows]:
        lines.append(
            f"  {src} -> {dst}: {int(count)} transfers,"
            f" {nbytes / (1024.0 * 1024.0):.2f} MiB, {busy:.1f}s busy"
        )
    if len(ranked) > max_rows:
        lines.append(f"  ... {len(ranked) - max_rows} more")
    if not ranked:
        lines.append("  (none)")

    lines.append("")
    lines.append(
        f"barrier: {len(summary.barrier_rounds)} rounds,"
        f" {summary.barrier_stall_seconds:.2f}s total stall"
    )
    for start, dur, plan_seq in summary.barrier_rounds[:max_rows]:
        lines.append(f"  {start:10.1f}s  plan #{plan_seq}: {dur:.2f}s stall")
    if len(summary.barrier_rounds) > max_rows:
        lines.append(
            f"  ... {len(summary.barrier_rounds) - max_rows} more"
        )

    lines.append("")
    lines.append(
        f"planner: {summary.planner_runs} runs,"
        f" {summary.planner_searches} searches,"
        f" {summary.candidates_evaluated} candidates evaluated"
    )
    quality = ", ".join(
        f"{k}={v}" for k, v in sorted(summary.estimate_quality.items())
    )
    lines.append(
        f"monitor: {summary.probes_sent} probes,"
        f" estimates [{quality or 'none'}]"
    )
    lines.append(f"forwarded messages: {summary.forwarded}")

    faulted = (
        summary.fault_timeline
        or summary.retransmissions
        or summary.dropped_bytes
        or summary.abandoned_messages
        or summary.aborted_relocations
        or summary.probe_timeouts
        or summary.planner_fallbacks
    )
    if faulted:
        lines.append("")
        lines.append(
            "resilience:"
            f" {summary.retransmissions} retransmissions,"
            f" {summary.dropped_bytes / 1024.0:.1f} KiB dropped,"
            f" {summary.abandoned_messages} abandoned,"
            f" {summary.aborted_relocations} aborted relocations,"
            f" {summary.probe_timeouts} probe timeouts,"
            f" {summary.planner_fallbacks} planner fallbacks,"
            f" {summary.host_downtime_seconds:.1f}s host downtime"
        )
        if summary.fault_timeline:
            lines.append(
                f"fault timeline ({len(summary.fault_timeline)} boundaries):"
            )
            for t, etype, detail in summary.fault_timeline[:max_rows]:
                lines.append(f"  {t:10.1f}s  {etype:<16} {detail}")
            if len(summary.fault_timeline) > max_rows:
                lines.append(
                    f"  ... {len(summary.fault_timeline) - max_rows} more"
                )

    if summary.event_histogram:
        total = sum(summary.event_histogram.values())
        lines.append("")
        lines.append(
            f"trace event histogram ({total} records,"
            f" {len(summary.event_histogram)} types):"
        )
        ranked_types = sorted(
            summary.event_histogram.items(), key=lambda kv: (-kv[1], kv[0])
        )
        for etype, count in ranked_types[:max_rows]:
            lines.append(f"  {etype:<24} {count}")
        if len(ranked_types) > max_rows:
            lines.append(f"  ... {len(ranked_types) - max_rows} more types")

    if summary.counters:
        sim_events = summary.counters.get("sim.events")
        if sim_events is not None:
            lines.append("")
            lines.append(f"kernel events processed: {int(sim_events)}")
            per_type = sorted(
                (key, value)
                for key, value in summary.counters.items()
                if key.startswith("sim.events.")
            )
            for key, value in per_type:
                lines.append(
                    f"  {key.removeprefix('sim.events.'):<24} {int(value)}"
                )
    return "\n".join(lines)
