"""A rocprof-style profiler for the simulated device.

Records kernel dispatches, JIT compilations, and H2D/D2H copies with
their modeled timestamps, then aggregates per-kernel counters and
writes them as a rocprof ``results.csv`` or a Figure-5-style text trace
of computational load and memory transfers over simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu.kernel import LaunchConfig
from repro.gpu.perf import LaunchCost


@dataclass(frozen=True)
class ProfileEvent:
    """One timeline entry: a kernel, a copy, or a JIT compilation."""

    device: str
    kind: str  # "kernel" | "copy" | "compile"
    name: str
    start: float
    seconds: float
    nbytes: float = 0.0
    cost: LaunchCost | None = None
    workgroup_size: int = 0

    @property
    def end(self) -> float:
        return self.start + self.seconds


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


class Profiler:
    """Collects :class:`ProfileEvent` entries from one or more devices."""

    def __init__(self) -> None:
        self.events: list[ProfileEvent] = []

    # -- recording hooks (called by Device) -----------------------------
    def record_kernel(
        self,
        device: str,
        name: str,
        start: float,
        cost: LaunchCost,
        config: LaunchConfig,
    ) -> None:
        self.events.append(
            ProfileEvent(
                device=device,
                kind="kernel",
                name=name,
                start=start,
                seconds=cost.seconds,
                nbytes=cost.total_bytes,
                cost=cost,
                workgroup_size=config.workgroup_size,
            )
        )

    def record_copy(self, device: str, kind: str, nbytes: int, start: float, seconds: float) -> None:
        self.events.append(
            ProfileEvent(
                device=device, kind="copy", name=kind, start=start,
                seconds=seconds, nbytes=nbytes,
            )
        )

    def record_compile(self, device: str, name: str, start: float, seconds: float) -> None:
        self.events.append(
            ProfileEvent(device=device, kind="compile", name=name, start=start, seconds=seconds)
        )

    def report(self, device=None) -> "RocprofReport":
        return RocprofReport.from_events(self.events, device=device)


@dataclass
class RocprofReport:
    """Aggregated per-kernel stats + the raw timeline."""

    stats: dict[str, KernelStats] = field(default_factory=dict)
    events: list[ProfileEvent] = field(default_factory=list)

    @classmethod
    def from_events(cls, events, *, device=None) -> "RocprofReport":
        report = cls(events=[e for e in events if device is None or e.device == device])
        for event in report.events:
            if event.kind != "kernel" or event.cost is None:
                continue
            st = report.stats.setdefault(event.name, KernelStats(event.name))
            st.calls += 1
            st.total_seconds += event.seconds
            st.fetch_bytes += event.cost.fetch_bytes
            st.write_bytes += event.cost.write_bytes
            st.tcc_hits += event.cost.tcc_hits
            st.tcc_misses += event.cost.tcc_misses
        return report

    def to_csv(self) -> str:
        """The rocprof ``results.csv`` shape: one row per dispatch/copy.

        Columns follow rocprof's conventions (timestamps in ns, sizes in
        bytes); compile events appear with KernelName ``<jit>`` so the
        Figure 7 overhead is visible in the same file.
        """
        header = (
            '"Index","KernelName","gpu-id","BeginNs","EndNs","DurationNs",'
            '"FETCH_SIZE","WRITE_SIZE","TCC_HIT","TCC_MISS","wgr"'
        )
        lines = [header]
        for index, event in enumerate(self.events):
            if event.kind == "kernel" and event.cost is not None:
                name = event.name
                fetch = int(event.cost.fetch_bytes)
                write = int(event.cost.write_bytes)
                hits = int(event.cost.tcc_hits)
                misses = int(event.cost.tcc_misses)
            elif event.kind == "compile":
                name = f"<jit:{event.name}>"
                fetch = write = hits = misses = 0
            else:
                name = f"<memcpy:{event.name}>"
                fetch = int(event.nbytes) if event.name == "D2H" else 0
                write = int(event.nbytes) if event.name == "H2D" else 0
                hits = misses = 0
            lines.append(
                f'{index},"{name}","{event.device}",'
                f"{int(event.start * 1e9)},{int(event.end * 1e9)},"
                f"{int(event.seconds * 1e9)},"
                f"{fetch},{write},{hits},{misses},{event.workgroup_size}"
            )
        return "\n".join(lines)

    def write_csv(self, path) -> None:
        from pathlib import Path

        Path(path).write_text(self.to_csv() + "\n")

    def render_trace(self, *, width: int = 72) -> str:
        """Figure-5-style text timeline of kernels, copies, compiles.

        Rendered by the shared :func:`repro.observe.export.ascii_timeline`.
        """
        from repro.observe.export import ascii_timeline

        labels = {"compile": "JIT", "kernel": "GPU kernels", "copy": "memcpy"}
        glyphs = {"compile": "J", "kernel": "#", "copy": "="}
        rows = [
            (
                labels[kind],
                glyphs[kind],
                [
                    (e.start, e.end)
                    for e in self.events
                    if e.kind == kind
                ],
            )
            for kind in ("compile", "kernel", "copy")
        ]
        return ascii_timeline(rows, width=width)
