"""Trace and metrics exporters.

Three output shapes:

- :func:`to_chrome_trace` — the Chrome trace-event JSON format, which
  Perfetto (https://ui.perfetto.dev) and ``chrome://tracing`` load
  directly. Wall-clock lanes and modeled (sim-clock) lanes are exported
  as *separate processes* — ``rank0`` vs. ``gcd0 [modeled]`` — so the
  two clock domains are never laid onto one another, and each lane's
  events are sorted to monotonic timestamps.
- :func:`metrics_to_json` / :func:`write_metrics_json` — the flat
  metrics record (``repro.observe.metrics/1`` schema).
- :func:`ascii_timeline` — the Figure-5-style terminal rendering
  (:func:`repro.gpu.rocprof.timeline_rows` supplies Figure 5's rows).

:func:`validate_chrome_trace` is the schema checker the tests and the
``grayscott trace`` summarizer share: it verifies the ``ph``/``ts``/
``dur``/``pid``/``tid`` fields, per-lane timestamp monotonicity, and
the one-clock-per-lane invariant.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.observe.metrics import MetricsRegistry
from repro.observe.trace import SIM, WALL, Tracer
from repro.util.errors import ObserveError
from repro.util.units import format_seconds

_US = 1e6  # Chrome trace timestamps are microseconds


# ---------------------------------------------------------------------------
# Chrome / Perfetto trace-event JSON
# ---------------------------------------------------------------------------


def _process_label(process: str, clock: str) -> str:
    return process if clock == WALL else f"{process} [modeled]"


def to_chrome_trace(tracer: Tracer) -> dict:
    """Export every span as Chrome trace-event JSON (Perfetto-loadable)."""
    lanes = tracer.lanes()
    # stable pid/tid assignment: processes sorted by (clock, name) so all
    # wall-clock ranks come first, then the modeled device processes
    processes: dict[str, int] = {}
    threads: dict[tuple[str, str], int] = {}
    thread_counts: dict[str, int] = {}  # process label -> threads numbered
    # every span in a lane shares the clock domain by construction
    lane_clock = {lane: records[0].clock for lane, records in lanes.items()}
    ordered = sorted(lanes, key=lambda ln: (lane_clock[ln], ln))
    events: list[dict] = []
    for lane in ordered:
        process, thread = lane
        clock = lane_clock[lane]
        label = _process_label(process, clock)
        if label not in processes:
            processes[label] = len(processes) + 1
            events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": processes[label],
                    "tid": 0,
                    "args": {"name": label},
                }
            )
        pid = processes[label]
        if (label, thread) not in threads:
            threads[(label, thread)] = thread_counts[label] = (
                thread_counts.get(label, 0) + 1
            )
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": threads[(label, thread)],
                    "args": {"name": thread},
                }
            )
        tid = threads[(label, thread)]
        for record in lanes[lane]:  # already sorted by start
            event = {
                "name": record.name,
                "cat": f"{record.cat},{record.clock}",
                "ph": record.ph,
                "ts": record.start * _US,
                "pid": pid,
                "tid": tid,
                "args": {**record.args_dict(), "clock": record.clock},
            }
            if record.ph == "X":
                event["dur"] = record.seconds * _US
            else:
                event["s"] = "t"
            events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": "repro.observe.trace/1",
            "clock_domains": {
                WALL: "measured wall time",
                SIM: "modeled Frontier time (SimClock)",
            },
        },
    }


def write_chrome_trace(tracer: Tracer, path) -> Path:
    return write_chrome_json(to_chrome_trace(tracer), path)


def write_chrome_json(obj: dict, path) -> Path:
    """Write a Chrome trace object as ``json.dumps(obj, indent=1)`` would.

    The monolithic exporter and ``merge-shards`` both write through here,
    so their bytes agree.
    """
    target = Path(path)
    target.write_text(_indented(obj, 1))
    return target


#: list items encoded per C-encoder call: each re-indent stays a few MB
_BATCH = 2048
#: the C encoder (``indent`` unset) with a raw newline after every item
_compact = json.JSONEncoder(separators=(",\n", ": ")).encode


def _indented(value, depth: int) -> str:
    """``json.dumps(value, indent=1)`` of a value nested at ``depth``.

    ``indent`` sends the stdlib to its pure-Python encoder. Here dicts are
    walked key by key, and the items of a list are encoded by the C
    encoder, a batch at a time, with ``",\\n"`` between items and then
    indented by :func:`_reindent`.
    """
    if isinstance(value, dict) and value:
        pad = "\n" + " " * depth
        return "{" + ",".join(
            f"{pad}{_compact(k if isinstance(k, str) else json.dumps(k))}: "
            f"{_indented(v, depth + 1)}" for k, v in value.items()
        ) + pad[:-1] + "}"
    if isinstance(value, list) and value:
        return "[" + ",".join(
            _reindent(_compact(value[i:i + _BATCH]), depth)[1:-depth - 1]
            for i in range(0, len(value), _BATCH)
        ) + "\n" + " " * (depth - 1) + "]"
    return _compact(value)



def _reindent(text: str, depth: int) -> str:
    """Indent the ``",\\n"``-separated encoding of a list at ``depth``.

    Outside strings, a raw newline ends an item and a bracket opens or
    closes a container; a quote delimits a string unless an odd run of
    backslashes precedes it. Each non-empty container gets a newline
    after its opener and before its closer, and each newline is followed
    by the indent of its depth.
    """
    b = np.frombuffer(text.encode("ascii"), np.uint8)
    quotes = np.flatnonzero(b == 34)
    escaped = []
    for q in quotes[b[quotes - 1] == 92].tolist():
        run = 1
        while b[q - 1 - run] == 92:
            run += 1
        escaped += [q] if run % 2 else []
    quotes = np.setdiff1d(quotes, escaped, assume_unique=True)
    marks = np.flatnonzero((b == 123) | (b == 125) | (b == 91) | (b == 93) | (b == 10))
    marks = marks[np.searchsorted(quotes, marks) % 2 == 0]  # outside strings
    kind = b[marks]
    opens, closes = (kind == 123) | (kind == 91), (kind == 125) | (kind == 93)
    indent = depth - 1 + np.cumsum(opens.astype(np.int32) - closes)
    empty = opens[:-1] & closes[1:] & (marks[1:] == marks[:-1] + 1)
    opens[:-1] &= ~empty
    closes[1:] &= ~empty
    kept = opens | closes | (kind == 10)
    after = (marks - closes)[kept]  # insert after this byte
    newline = ~(kind == 10)[kept]
    length = indent[kept] + newline
    values = np.full(int(length.sum()), 32, np.uint8)
    values[(np.cumsum(length) - length)[newline]] = 10
    return np.insert(b, np.repeat(after + 1, length), values).tobytes().decode("ascii")


def load_chrome_trace(path) -> dict:
    """Load a trace as a validated Chrome trace object.

    Accepts a monolithic Chrome JSON file, or any streamed-shard source
    from :mod:`repro.observe.stream` — a shard directory, its
    ``manifest.json``, or a single ``.jsonl`` shard file — which is
    merged to the equivalent Chrome object on the fly.
    """
    from repro.observe.stream import is_shard_source, merge_shards

    target = Path(path)
    if is_shard_source(target):
        obj = merge_shards(target)
    else:
        if not target.exists():
            raise ObserveError(f"trace file not found: {target}")
        try:
            obj = json.loads(target.read_text())
        except json.JSONDecodeError as exc:
            raise ObserveError(
                f"trace file is not valid JSON: {exc}"
            ) from exc
    problems = validate_chrome_trace(obj)
    if problems:
        raise ObserveError(
            f"invalid Chrome trace {target}: " + "; ".join(problems[:5])
        )
    return obj


def validate_chrome_trace(obj) -> list[str]:
    """Schema-check a Chrome trace; returns a list of problems.

    ``obj`` may be the trace object itself, or a path — monolithic
    JSON, a ``.jsonl`` shard, a shard directory, or a manifest. Checks
    the required fields per event phase, that per-lane ``ts`` values are
    monotonically non-decreasing, and that no (pid, tid) lane mixes the
    two clock domains. Streamed forms are checked record by record, in
    bounded memory, by :func:`repro.observe.stream.validate_shard_stream`.
    """
    if isinstance(obj, (str, Path)):
        from repro.observe.stream import is_shard_source, validate_shard_stream

        target = Path(obj)
        if is_shard_source(target):
            return validate_shard_stream(target)
        try:
            obj = json.loads(target.read_text())
        except OSError as exc:
            return [f"cannot read {target}: {exc}"]
        except json.JSONDecodeError as exc:
            return [f"{target} is not valid JSON: {exc}"]
    problems: list[str] = []
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        return ["top level must be an object with a 'traceEvents' list"]
    events = obj["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    last_ts: dict[tuple, float] = {}
    lane_clocks: dict[tuple, str] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index} is not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "i", "M"):
            problems.append(f"event {index} has unsupported phase {ph!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"event {index} missing integer {key!r}")
        if ph == "M":
            continue  # metadata events carry no timestamps
        if not isinstance(event.get("name"), str):
            problems.append(f"event {index} missing 'name'")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"event {index} missing numeric 'ts'")
            continue
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(
                    f"event {index} ({event.get('name')}) missing "
                    "nonnegative 'dur'"
                )
        lane = (event.get("pid"), event.get("tid"))
        if ts < last_ts.get(lane, float("-inf")):
            problems.append(
                f"event {index} ({event.get('name')}) breaks per-lane "
                f"timestamp monotonicity on pid/tid {lane}"
            )
        last_ts[lane] = ts
        clock = (event.get("args") or {}).get("clock")
        if clock is not None:
            known = lane_clocks.setdefault(lane, clock)
            if known != clock:
                problems.append(
                    f"lane pid/tid {lane} mixes clock domains "
                    f"({known!r} and {clock!r})"
                )
    return problems


def _exclusive_us(lane_events: list[dict]) -> list[float]:
    """Each span's ``dur`` minus the part covered by its direct children.

    Spans of one lane nest by time; a span starting inside the open
    span on top of the stack is its child. A child overrunning its
    parent (rounding, or async spans sharing a lane) is charged only
    for the overlap, so exclusive times never go negative.
    """
    order = sorted(
        range(len(lane_events)),
        key=lambda i: (lane_events[i]["ts"], -lane_events[i]["dur"]),
    )
    exclusive = [float(e["dur"]) for e in lane_events]
    stack: list[tuple[int, float]] = []  # (index, end) of open spans
    for i in order:
        ts = lane_events[i]["ts"]
        end = ts + lane_events[i]["dur"]
        while stack and stack[-1][1] <= ts:
            stack.pop()
        if stack:
            parent, parent_end = stack[-1]
            exclusive[parent] -= min(end, parent_end) - ts
        stack.append((i, end))
    return exclusive


def summarize_chrome_trace(obj, *, width: int = 72) -> str:
    """Human summary of a loaded Chrome trace (the ``grayscott trace`` cmd).

    Wall-clock and modeled spans get separate sections (keyed on
    ``args.clock``; spans without one count as wall clock), since their
    timebases are not comparable. Category and lane times are
    *exclusive* — a span's duration minus its same-lane children — so
    each section's shares add up to 100%.
    """
    from repro.util.tables import Table

    all_events = obj.get("traceEvents", [])
    events = [e for e in all_events if e.get("ph") == "X"]
    meta = {
        (e["pid"], e.get("tid", 0)): e["args"]["name"]
        for e in all_events
        if e.get("ph") == "M" and e.get("name") == "thread_name"
    }
    process_names = {
        e["pid"]: e["args"]["name"]
        for e in all_events
        if e.get("ph") == "M" and e.get("name") == "process_name"
    }
    by_lane: dict[tuple, list[dict]] = {}
    for event in events:
        by_lane.setdefault((event["pid"], event["tid"]), []).append(event)
    sections = []
    for clock, heading in ((WALL, "wall clock"), (SIM, "modeled clock")):
        lanes = {
            lane: lane_events for lane, lane_events in sorted(by_lane.items())
            if (lane_events[0].get("args") or {}).get("clock", WALL) == clock
        }
        if not lanes:
            continue
        by_cat: dict[str, list] = {}
        lane_table = Table(
            ["process", "lane", "spans", "busy"], title=f"lanes ({heading})"
        )
        rows = []
        for lane, lane_events in lanes.items():
            exclusive = _exclusive_us(lane_events)
            for event, excl in zip(lane_events, exclusive):
                cat = str(event.get("cat", "?")).split(",")[0]
                entry = by_cat.setdefault(cat, [0, 0.0])
                entry[0] += 1
                entry[1] += excl
            lane_table.add_row([
                process_names.get(lane[0], f"pid{lane[0]}"),
                meta.get(lane, f"tid{lane[1]}"),
                len(lane_events),
                format_seconds(sum(exclusive) / _US),
            ])
            label = (
                f"{process_names.get(lane[0], lane[0])}/"
                f"{meta.get(lane, lane[1])}"
            )
            rows.append((label, "#", [
                (e["ts"] / _US, (e["ts"] + e["dur"]) / _US)
                for e in lane_events
            ]))
        count = sum(n for n, _ in by_cat.values())
        cat_table = Table(
            ["category", "spans", "exclusive", "share"],
            title=f"trace summary, {heading} ({count} spans)",
        )
        grand_total = sum(t for _, t in by_cat.values()) or 1.0
        for cat in sorted(by_cat):
            n, total = by_cat[cat]
            cat_table.add_row([
                cat, n, format_seconds(total / _US),
                f"{100 * total / grand_total:.1f}%",
            ])
        t_end = max(end for _, _, iv in rows for _, end in iv)
        sections += [
            cat_table.render(),
            lane_table.render(),
            ascii_timeline(
                rows, width=width,
                title=f"{heading}: {format_seconds(t_end)} ({count} spans)",
            ),
        ]
    if not sections:
        return "trace summary (0 spans)"
    return "\n\n".join(sections)


# ---------------------------------------------------------------------------
# metrics JSON
# ---------------------------------------------------------------------------


def metrics_to_json(registry: MetricsRegistry) -> dict:
    return registry.to_json()


def write_metrics_json(registry: MetricsRegistry, path) -> Path:
    target = Path(path)
    target.write_text(json.dumps(metrics_to_json(registry), indent=1))
    return target


# ---------------------------------------------------------------------------
# ASCII timelines
# ---------------------------------------------------------------------------


def ascii_timeline(rows, *, width: int = 72, title: str | None = None) -> str:
    """Render labelled interval rows as a fixed-width text timeline.

    ``rows`` is a list of ``(label, glyph, intervals)`` with intervals
    as ``(start, end)`` pairs in one shared timebase. Rows with no
    intervals are skipped; an entirely empty timeline renders as
    ``"(empty trace)"``. This is the shared renderer behind Figure 5
    (:mod:`repro.bench.fig5`) and the ``grayscott trace`` command.
    """
    populated = [(label, glyph, iv) for label, glyph, iv in rows if iv]
    if not populated:
        return "(empty trace)"
    t_end = max(end for _, _, intervals in populated for _, end in intervals)
    t_end = t_end or 1.0
    count = sum(len(intervals) for _, _, intervals in populated)
    header = title or f"trace over {format_seconds(t_end)} ({count} events)"
    label_width = max(len(label) for label, _, _ in populated)
    label_width = max(label_width, 12)
    lines = [header]
    for label, glyph, intervals in populated:
        row = [" "] * width
        for start, end in intervals:
            lo = int(start / t_end * (width - 1))
            hi = max(lo + 1, int(end / t_end * (width - 1)) + 1)
            for pos in range(lo, min(hi, width)):
                row[pos] = glyph
        lines.append(f"{label:>{label_width}} |{''.join(row)}|")
    return "\n".join(lines)


#: default glyph per built-in span category
_CATEGORY_GLYPHS = {"core": "-", "gpu": "#", "mpi": "~", "adios": "="}


def tracer_timeline(tracer: Tracer, *, width: int = 72) -> str:
    """ASCII timeline of a live tracer, one row per lane per domain.

    Wall-clock and sim-clock lanes get separate sections since their
    timebases are not comparable.
    """
    sections = []
    for clock, heading in ((WALL, "wall clock"), (SIM, "modeled clock")):
        rows = []
        for (process, thread), records in sorted(tracer.lanes().items()):
            spans = [r for r in records if r.clock == clock and r.ph == "X"]
            if not spans:
                continue
            glyph = _CATEGORY_GLYPHS.get(spans[0].cat, "*")
            rows.append(
                (
                    f"{process}/{thread}",
                    glyph,
                    [(r.start, r.end) for r in spans],
                )
            )
        if rows:
            count = sum(len(iv) for _, _, iv in rows)
            t_end = max(end for _, _, iv in rows for _, end in iv)
            sections.append(
                ascii_timeline(
                    rows,
                    width=width,
                    title=(
                        f"{heading}: {format_seconds(t_end)} "
                        f"({count} spans)"
                    ),
                )
            )
    return "\n\n".join(sections) if sections else "(empty trace)"
