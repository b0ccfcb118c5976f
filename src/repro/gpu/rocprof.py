"""rocprof-style views of the simulated device's spans.

:class:`~repro.gpu.memory.Device` records every kernel dispatch, JIT
compilation and H2D/D2H copy as one SIM-clock span on its ``kernel``,
``jit`` or ``copy`` lane (:mod:`repro.observe.trace`). The functions
here render those spans as a rocprof ``results.csv``, as the per-kernel
counters of Table 3, and as the rows of a Figure-5-style timeline of
computational load and memory transfers over simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.observe.trace import SIM

#: device lane -> event kind
_KINDS = {"jit": "compile", "kernel": "kernel", "copy": "copy"}


def device_events(spans) -> list[tuple[str, object]]:
    """``(kind, span)`` of every device event among ``spans``.

    Sorted by (start, device, kind, name): rank threads add their
    devices' spans in whatever order they interleave, and the sort makes
    the result independent of it. Ties within one device keep the
    device's own recording order.
    """
    events = [
        (_KINDS[span.thread], span)
        for span in spans
        if span.cat == "gpu" and span.clock == SIM and span.thread in _KINDS
    ]
    events.sort(key=lambda e: (e[1].start, e[1].process, e[0], e[1].name))
    return events


@dataclass
class KernelStats:
    """Accumulated counters for one kernel symbol (one Table 3 column)."""

    name: str
    calls: int = 0
    total_seconds: float = 0.0
    fetch_bytes: float = 0.0
    write_bytes: float = 0.0
    tcc_hits: float = 0.0
    tcc_misses: float = 0.0

    @property
    def avg_fetch_bytes(self) -> float:
        return self.fetch_bytes / self.calls if self.calls else 0.0


def kernel_stats(spans) -> dict[str, KernelStats]:
    """Per-kernel dispatch counters summed over the kernel spans."""
    stats: dict[str, KernelStats] = {}
    for kind, span in device_events(spans):
        if kind != "kernel":
            continue
        st = stats.setdefault(span.name, KernelStats(span.name))
        st.calls += 1
        st.total_seconds += span.seconds
        st.fetch_bytes += span.arg("fetch_bytes")
        st.write_bytes += span.arg("write_bytes")
        st.tcc_hits += span.arg("tcc_hit")
        st.tcc_misses += span.arg("tcc_miss")
    return stats


def to_csv(spans) -> str:
    """The rocprof ``results.csv`` shape: one row per dispatch/copy.

    Columns follow rocprof's conventions (timestamps in ns, sizes in
    bytes); compile events appear with KernelName ``<jit:...>`` so the
    Figure 7 overhead is visible in the same file. Rows are numbered in
    :func:`device_events` order, so equal runs write equal files.
    """
    lines = [
        '"Index","KernelName","gpu-id","BeginNs","EndNs","DurationNs",'
        '"FETCH_SIZE","WRITE_SIZE","TCC_HIT","TCC_MISS","wgr"'
    ]
    for index, (kind, span) in enumerate(device_events(spans)):
        fetch = write = hits = misses = wgr = 0
        if kind == "kernel":
            name = span.name
            fetch, write, hits, misses = (
                int(span.arg(key))
                for key in ("fetch_bytes", "write_bytes", "tcc_hit", "tcc_miss")
            )
            wgr = span.arg("workgroup_size")
        elif kind == "compile":
            name = f"<jit:{span.arg('kernel')}>"
        else:
            copy = span.arg("kind")
            name = f"<memcpy:{copy}>"
            nbytes = int(span.arg("bytes"))
            fetch = nbytes if copy == "D2H" else 0
            write = nbytes if copy == "H2D" else 0
        lines.append(
            f'{index},"{name}","{span.process}",'
            f"{int(span.start * 1e9)},{int(span.end * 1e9)},"
            f"{int(span.seconds * 1e9)},"
            f"{fetch},{write},{hits},{misses},{wgr}"
        )
    return "\n".join(lines)


def timeline_rows(spans) -> list[tuple[str, str, list]]:
    """Figure 5's JIT / kernel / copy rows, for
    :func:`repro.observe.export.ascii_timeline`."""
    events = device_events(spans)
    return [
        (label, glyph, [(s.start, s.end) for k, s in events if k == kind])
        for kind, label, glyph in (
            ("compile", "JIT", "J"),
            ("kernel", "GPU kernels", "#"),
            ("copy", "memcpy", "="),
        )
    ]
