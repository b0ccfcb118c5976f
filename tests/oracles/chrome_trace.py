"""Chrome-trace oracle: the export that numbered threads by scanning.

Production :func:`repro.observe.export.to_chrome_trace` keeps a thread
counter per process. This is the export it replaced, which numbered
each new thread by counting every thread seen so far (O(lanes²)); the
two must produce the same events.
"""

from __future__ import annotations

from repro.observe.trace import SIM, WALL, Tracer

_US = 1e6


def _process_label(process: str, clock: str) -> str:
    return process if clock == WALL else f"{process} [modeled]"


def to_chrome_trace_scan(tracer: Tracer) -> dict:
    """Chrome trace-event JSON with thread ids found by a full scan."""
    lanes = tracer.lanes()
    processes: dict[str, int] = {}
    threads: dict[tuple[str, str], int] = {}
    lane_clock = {lane: records[0].clock for lane, records in lanes.items()}
    ordered = sorted(lanes, key=lambda ln: (lane_clock[ln], ln))
    events: list[dict] = []
    for lane in ordered:
        process, thread = lane
        clock = lane_clock[lane]
        label = _process_label(process, clock)
        if label not in processes:
            processes[label] = len(processes) + 1
            events.append({"ph": "M", "name": "process_name",
                           "pid": processes[label], "tid": 0,
                           "args": {"name": label}})
        pid = processes[label]
        if (label, thread) not in threads:
            threads[(label, thread)] = (
                len([t for t in threads if t[0] == label]) + 1
            )
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": threads[(label, thread)],
                           "args": {"name": thread}})
        tid = threads[(label, thread)]
        for record in lanes[lane]:
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
