"""Span-journal aggregation: trees, Chrome traces, stage reports.

Backs the ``repro profile`` subcommand and ``--verbose``.  A *run* is
a directory holding a ``manifest.json`` and a ``spans.jsonl`` journal
(plus any unmerged worker journals left behind by a crashed run -
those are folded in on load, so a killed sweep still profiles).
Consumers:

* :func:`render_tree` - the per-stage/per-cell wall-clock tree plus an
  aggregate by span name, for reading in a terminal;
* :func:`render_stage_report` - the ``repro experiment <id>
  --verbose`` report: cache outcomes, seconds per span name, and one
  line per workload cell;
* :func:`chrome_document` - Chrome trace-event JSON (the ``ph: "X"``
  complete-event form), loadable in Perfetto / ``chrome://tracing``
  for flamegraph viewing;
* :func:`request_timeline` - merges the spans stamped with one
  client ``request_id`` across *multiple* runs (e.g. the journals of
  two daemon incarnations either side of a supervised restart) into a
  single wall-clock-ordered timeline, via each manifest's paired
  ``started_unix``/``started_monotonic`` clock anchor.

Rotated journal segments (``spans.jsonl.old``, rotated worker
segments) are folded in on load, so long-lived daemons profile
completely.  Speed claims come from the repository benchmark
(``benchmarks/perf``), not from here: a journal says where one run
spent its time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.eval import reporting
from repro.obs import manifest as run_manifest
from repro.obs.spans import JOURNAL, ROTATED_SUFFIX, WORKER_PREFIX

#: Children rendered per parent before eliding the rest.
MAX_CHILDREN = 32

#: Attributes promoted into the rendered tree label, in display order.
_LABEL_ATTRS = ("workload", "scheme", "config", "cache", "index",
                "attempt", "hit", "cells", "jobs", "error")


@dataclass
class RunProfile:
    """One loaded span journal plus its manifest."""

    source: Path
    manifest: dict = field(default_factory=dict)
    spans: List[dict] = field(default_factory=list)
    skipped: int = 0            # malformed journal lines dropped

    @property
    def roots(self) -> List[dict]:
        """Spans whose parent is absent from the journal, sorted."""
        known = {span["id"] for span in self.spans}
        return [span for span in self.spans
                if span.get("parent") not in known]

    @property
    def origin(self) -> float:
        """The earliest monotonic timestamp in the journal."""
        if not self.spans:
            return 0.0
        return min(span["start"] for span in self.spans)

    @property
    def unix_anchor(self) -> Optional[float]:
        """Wall-clock seconds at monotonic zero, from the manifest.

        Span timestamps are ``time.monotonic`` values; the manifest
        records both clocks at run start, so ``unix_anchor + start``
        places any span on the wall clock - the shared axis that lets
        journals from *different processes* (daemon incarnations
        before and after a restart) merge into one timeline.
        """
        try:
            return float(self.manifest["started_unix"]) \
                - float(self.manifest["started_monotonic"])
        except (KeyError, TypeError, ValueError):
            return None


def _read_journal(path: Path) -> Tuple[List[dict], int]:
    spans, skipped = [], 0
    for raw in path.read_text(encoding="utf-8").splitlines():
        if not raw.strip():
            continue
        try:
            entry = json.loads(raw)
        except json.JSONDecodeError:
            skipped += 1
            continue
        if not isinstance(entry, dict) or "id" not in entry \
                or "start" not in entry:
            skipped += 1
            continue
        entry.setdefault("name", "?")
        entry.setdefault("dur", 0.0)
        entry.setdefault("pid", 0)
        entry.setdefault("tid", 0)
        entry.setdefault("attrs", {})
        spans.append(entry)
    return spans, skipped


def load_run(path: Union[str, Path]) -> RunProfile:
    """Load a run directory (or a bare ``.jsonl`` journal file).

    Raises ``FileNotFoundError`` when no journal exists at ``path``.
    """
    path = Path(path)
    profile = RunProfile(source=path)
    if path.is_dir():
        profile.manifest = run_manifest.load_manifest(path) or {}
        # Rotated segments (``.old``) hold the *oldest* spans of a
        # long-lived run - read them first so the merged journal stays
        # roughly chronological, then the live segments, then any
        # unmerged worker journals (rotated or not).
        journals = [path / (JOURNAL + ROTATED_SUFFIX), path / JOURNAL] \
            + sorted(path.glob(WORKER_PREFIX + "*.jsonl*"))
        journals = [j for j in journals if j.exists()]
        if not journals:
            raise FileNotFoundError(
                f"no span journal ({JOURNAL}) under {path}")
    else:
        if not path.exists():
            raise FileNotFoundError(f"no span journal at {path}")
        rotated = path.with_name(path.name + ROTATED_SUFFIX)
        journals = [j for j in (rotated, path) if j.exists()]
        profile.manifest = run_manifest.load_manifest(path.parent) or {}
    for journal in journals:
        spans, skipped = _read_journal(journal)
        profile.spans.extend(spans)
        profile.skipped += skipped
    profile.spans.sort(key=lambda s: (s["start"], s["pid"], s["id"]))
    return profile


def load_runs(paths: List[Union[str, Path]]) -> List[RunProfile]:
    """Load several run directories/journals (one profile each)."""
    return [load_run(path) for path in paths]


# -- request timelines --------------------------------------------------


@dataclass
class RequestTimeline:
    """Every span of one request, merged across runs/incarnations."""

    request_id: str
    entries: List[dict] = field(default_factory=list)
    sources: List[Path] = field(default_factory=list)

    @property
    def incarnations(self) -> List[str]:
        """Distinct incarnation ids touched, in first-seen order."""
        seen: List[str] = []
        for entry in self.entries:
            inc = entry["incarnation"]
            if inc not in seen:
                seen.append(inc)
        return seen

    @property
    def attempts(self) -> List[dict]:
        """Per-attempt summaries, lowest attempt first.

        Outcome comes from the completed ``serve:request`` span when
        one exists (its recorded ``status``); an attempt that left
        only the flushed ``serve:request:start`` event belongs to an
        incarnation that died mid-request.
        """
        grouped: Dict[int, List[dict]] = {}
        for entry in self.entries:
            grouped.setdefault(entry["attempt"], []).append(entry)
        summaries = []
        for attempt in sorted(grouped):
            entries = grouped[attempt]
            incs = []
            for entry in entries:
                if entry["incarnation"] not in incs:
                    incs.append(entry["incarnation"])
            status = None
            started = False
            for entry in entries:
                if entry["name"] == "serve:request":
                    status = entry["attrs"].get("status")
                elif entry["name"] == "serve:request:start":
                    started = True
            if status is not None:
                outcome = f"completed status {status}"
            elif started:
                outcome = "started, never completed"
            else:
                outcome = "?"
            summaries.append({"attempt": attempt,
                              "incarnations": incs,
                              "spans": len(entries),
                              "outcome": outcome})
        return summaries


def _resolve_incarnations(profile: RunProfile) -> Dict[str, str]:
    """Span id -> incarnation id for one merged journal.

    Only the daemon's request spans/events carry the ``incarnation``
    attribute explicitly; everything beneath them (session stages,
    engine cells, pool-worker spans) inherits it down the parent
    chain.  Orphans fall back to the manifest's ``incarnation_id``
    (the *latest* incarnation, since restarts rewrite the manifest)
    and finally to a ``pid:N`` pseudo-id so entries are never blank.
    """
    by_id = {span["id"]: span for span in profile.spans}
    fallback = profile.manifest.get("incarnation_id")
    resolved: Dict[str, str] = {}
    for span in profile.spans:
        chain = []
        cursor, inc = span, None
        while cursor is not None and cursor["id"] not in resolved:
            attr = cursor.get("attrs", {}).get("incarnation")
            if attr is not None:
                inc = str(attr)
                break
            chain.append(cursor["id"])
            cursor = by_id.get(cursor.get("parent"))
        if inc is None and cursor is not None:
            inc = resolved.get(cursor["id"])
        for span_id in chain:
            if inc is not None:
                resolved[span_id] = inc
        if inc is not None:
            resolved.setdefault(span["id"], inc)
    for span in profile.spans:
        resolved.setdefault(
            span["id"], str(fallback) if fallback is not None
            else f"pid:{span['pid']}")
    return resolved


def request_timeline(profiles: List[RunProfile],
                     request_id: str) -> RequestTimeline:
    """Merge every span of ``request_id`` across ``profiles``.

    Selects spans stamped with the request id (the thread-local
    request context attaches it daemon-side, and workers re-bind it,
    so the whole tree is stamped) plus any transitive descendants
    that slipped through unstamped.  Entries are placed on the wall
    clock via each profile's :attr:`RunProfile.unix_anchor`, which is
    what makes journals from two daemon incarnations - different
    processes with unrelated monotonic clocks - sortable into one
    timeline.
    """
    timeline = RequestTimeline(request_id=str(request_id))
    for index, profile in enumerate(profiles):
        incarnations = _resolve_incarnations(profile)
        anchor = profile.unix_anchor
        children = _children_by_parent(profile.spans)
        selected: Dict[str, dict] = {}
        queue = [span for span in profile.spans
                 if str(span.get("attrs", {}).get("request"))
                 == str(request_id)]
        while queue:
            span = queue.pop()
            if span["id"] in selected:
                continue
            selected[span["id"]] = span
            queue.extend(children.get(span["id"], []))
        if not selected:
            continue
        timeline.sources.append(profile.source)
        for span in selected.values():
            unix = anchor + span["start"] if anchor is not None \
                else None
            attempt = span.get("attrs", {}).get("request_attempt")
            timeline.entries.append({
                "t": unix,
                "rel": span["start"],
                "dur": span["dur"],
                "name": span["name"],
                "label": _label(span),
                "incarnation": incarnations[span["id"]],
                "attempt": int(attempt) if attempt is not None else 0,
                "pid": span["pid"],
                "source": profile.source,
                "order": index,
                "attrs": span.get("attrs", {}),
            })
    timeline.entries.sort(
        key=lambda e: ((0, e["t"], e["rel"]) if e["t"] is not None
                       else (1, e["order"], e["rel"])))
    return timeline


def render_request_timeline(timeline: RequestTimeline) -> str:
    """One request's merged cross-incarnation timeline, as text."""
    if not timeline.entries:
        return (f"request {timeline.request_id}: no spans found "
                f"(is the daemon run with --trace-spans, and the id "
                f"from ServeClient.last_request_id?)")
    incs = timeline.incarnations
    header = (f"Request {timeline.request_id}: "
              f"{len(timeline.entries)} spans, "
              f"{len(timeline.attempts)} attempt(s) across "
              f"{len(incs)} incarnation(s)")
    attempt_rows = [[summary["attempt"],
                     " ".join(summary["incarnations"]),
                     summary["spans"], summary["outcome"]]
                    for summary in timeline.attempts]
    lines = [reporting.format_table(
        ["attempt", "incarnation", "spans", "outcome"], attempt_rows,
        title=header)]
    anchored = [e["t"] for e in timeline.entries if e["t"] is not None]
    origin = min(anchored) if anchored else None
    rows = []
    for entry in timeline.entries:
        offset = "" if entry["t"] is None or origin is None \
            else f"+{entry['t'] - origin:.3f}s"
        rows.append([offset, entry["incarnation"], entry["attempt"],
                     entry["label"],
                     reporting.seconds(entry["dur"])])
    lines.append("")
    lines.append(reporting.format_table(
        ["offset", "incarnation", "attempt", "span", "wall-clock"],
        rows, title="Timeline (wall-clock merged)"))
    return "\n".join(lines)


# -- tree rendering -----------------------------------------------------


def _children_by_parent(spans: List[dict]) -> Dict[Optional[str],
                                                   List[dict]]:
    children: Dict[Optional[str], List[dict]] = {}
    known = {span["id"] for span in spans}
    for span in spans:
        parent = span.get("parent")
        key = parent if parent in known else None
        children.setdefault(key, []).append(span)
    return children


def _label(span: dict) -> str:
    parts = [span["name"]]
    attrs = span.get("attrs", {})
    detail = [f"{key}={attrs[key]}" for key in _LABEL_ATTRS
              if key in attrs]
    if detail:
        parts.append("[" + " ".join(detail) + "]")
    return " ".join(parts)


def _tree_rows(span: dict,
               children: Dict[Optional[str], List[dict]],
               depth: int, total: float,
               rows: List[Tuple[str, str, str]]) -> None:
    share = span["dur"] / total if total > 0 else 0.0
    rows.append(("  " * depth + _label(span),
                 reporting.seconds(span["dur"]),
                 reporting.percent(share, 1)))
    kids = children.get(span["id"], [])
    for child in kids[:MAX_CHILDREN]:
        _tree_rows(child, children, depth + 1, total, rows)
    if len(kids) > MAX_CHILDREN:
        rows.append(("  " * (depth + 1)
                     + f"... ({len(kids) - MAX_CHILDREN} more)", "", ""))


def aggregate_by_name(spans: List[dict]) -> List[Tuple[str, int,
                                                       float, float]]:
    """``(name, count, total seconds, max seconds)`` per span name."""
    totals: Dict[str, List[float]] = {}
    for span in spans:
        entry = totals.setdefault(span["name"], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span["dur"]
        entry[2] = max(entry[2], span["dur"])
    return [(name, int(count), total, peak)
            for name, (count, total, peak) in sorted(totals.items())]


def render_tree(profile: RunProfile) -> str:
    """The run as an aligned wall-clock tree plus per-name aggregates."""
    manifest = profile.manifest
    caption = "Span tree"
    if manifest:
        what = manifest.get("experiment") or manifest.get("command") \
            or "?"
        caption += f": {what}"
        if manifest.get("scale") is not None:
            caption += f" @ scale {manifest['scale']:g}"
        if manifest.get("run_id"):
            caption += f" (run {manifest['run_id']})"
    roots = profile.roots
    total = max((span["dur"] for span in roots), default=0.0)
    children = _children_by_parent(profile.spans)
    rows: List[Tuple[str, str, str]] = []
    for root in roots:
        _tree_rows(root, children, 0, total, rows)
    lines = [reporting.format_table(["span", "wall-clock", "share"],
                                    rows, title=caption)]
    agg_rows = [[name, count, reporting.seconds(total_s),
                 reporting.seconds(total_s / count),
                 reporting.seconds(peak)]
                for name, count, total_s, peak
                in aggregate_by_name(profile.spans)]
    lines.append("")
    lines.append(reporting.format_table(
        ["span name", "count", "total", "mean", "max"], agg_rows,
        title="Aggregate by span name"))
    if profile.skipped:
        lines.append(f"({profile.skipped} malformed journal lines "
                     f"skipped)")
    return "\n".join(lines)


# -- stage report -------------------------------------------------------


def render_stage_report(profile: RunProfile,
                        resilience: Optional[Dict[str, int]] = None) -> str:
    """The ``--verbose`` report of one run, read from its journal.

    * a header: the cell count, the trace cache (from the manifest's
      config) and the ``trace:fetch`` outcomes - a corrupt entry is
      quarantined and re-produced, so it also counts as a miss;
    * count and cumulative seconds per span name (nested spans and
      parallel workers overlap, so the column can exceed wall-clock);
    * one line per workload cell, in submission order: its cache hits
      and misses and ``checkpoint:replay`` hits.  The sharded
      fan-out's ``name#i`` shard cells and its combine cell fold into
      their workload's line, so a sharded run reports the same cells
      as an unsharded one;
    * the non-zero ``resilience`` counters, if any.

    Spans older than the manifest's start belong to an earlier run
    journalled into the same directory and are left out.
    """
    since = profile.manifest.get("started_monotonic", float("-inf"))
    run = [span for span in profile.spans if span["start"] >= since]
    starts = {span["id"]: span["start"] for span in run}
    rank: Dict[str, tuple] = {}         # workload -> first submission
    tally: Dict[str, List[int]] = {}    # workload -> [hit, miss, replay]
    corrupt = 0
    for span in run:
        name, attrs = span["name"], span["attrs"]
        workload = str(attrs.get("workload", "")).partition("#")[0]
        if name == "trace:fetch":
            outcome = attrs.get("cache")
            counts = tally.setdefault(workload, [0, 0, 0])
            if outcome == "hit":
                counts[0] += 1
            elif outcome in ("miss", "corrupt"):
                counts[1] += 1
                corrupt += outcome == "corrupt"
            continue
        if name == "checkpoint:replay" and attrs.get("hit"):
            tally.setdefault(workload, [0, 0, 0])[2] += 1
        elif name != "cell" or "error" in attrs:
            continue
        order = (starts.get(span.get("parent"), 0.0),
                 attrs.get("index", 0))
        rank[workload] = min(rank.get(workload, order), order)
    cells = sorted(rank, key=rank.get)
    hits = sum(counts[0] for counts in tally.values())
    misses = sum(counts[1] for counts in tally.values())
    cache = profile.manifest.get("config", {}).get("trace_cache")
    lines = [f"Stage timing: {len(cells)} cells, trace cache "
             f"{cache or 'off'} ({hits} hits / {misses} misses, "
             f"{corrupt} corrupt)"]
    lines.append(reporting.format_table(
        ["span name", "count", "seconds"],
        [[name, count, reporting.seconds(total)]
         for name, count, total, _ in aggregate_by_name(run)]))
    if cells:
        width = max(len(name) for name in cells)
        lines.append("per-cell:")
        for name in cells:
            hit, miss, replays = tally.get(name, (0, 0, 0))
            lines.append(f"  {name:<{width}}  cache {hit} hit / "
                         f"{miss} miss  replays {replays}")
    recovered = sorted((key, value)
                       for key, value in (resilience or {}).items()
                       if value)
    if recovered:
        lines.append("resilience: " + "  ".join(
            f"{key}={value}" for key, value in recovered))
    return "\n".join(lines)


# -- Chrome trace-event export ------------------------------------------


def chrome_document(profile: RunProfile) -> dict:
    """The run as a Chrome trace-event document (Perfetto-loadable).

    Every span becomes one complete event (``ph: "X"``) with
    microsecond timestamps relative to the earliest span, keeping the
    parent/worker interleave visible per pid/tid track.
    """
    origin = profile.origin
    events = []
    for span in profile.spans:
        args = dict(span.get("attrs", {}))
        args["id"] = span["id"]
        if span.get("parent"):
            args["parent"] = span["parent"]
        events.append({
            "name": span["name"],
            "cat": "repro",
            "ph": "X",
            "ts": round((span["start"] - origin) * 1e6, 3),
            "dur": round(span["dur"] * 1e6, 3),
            "pid": span["pid"],
            "tid": span["tid"],
            "args": args,
        })
    other = {key: profile.manifest.get(key)
             for key in ("run_id", "experiment", "scale", "jobs",
                         "git_sha")
             if profile.manifest.get(key) is not None}
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": other}


def write_chrome(profile: RunProfile, path: Union[str, Path]) -> Path:
    """Write the Chrome trace-event JSON for ``profile`` to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_document(profile)) + "\n",
                    encoding="utf-8")
    return path
