"""Sampling profiler for virtual time.

At 64k ranks a traced virtual run records tens of millions of spans.
Often the question is coarser: *what were the ranks doing over time?*
:class:`SimProfiler` answers it the way ``perf record`` does, by
sampling: at a fixed virtual-time interval it counts, per ``(process,
state)``, the virtual processes in that state. The output is
flame-graph **folded stacks** (``name;state count``, the input of
``flamegraph.pl`` and speedscope), with digit runs folded to ``*``
(:func:`collapse_label`) so 65,536 ``vrank12345`` rows aggregate into
one ``vrank*``. The counts come from the epochs' interval columns
(:mod:`repro.sched.vector`); see ``docs/SCHEDULER.md``.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from repro.util.errors import SchedError

_DIGITS = re.compile(r"\d+")
#: the most sample instants a profile builds (8 bytes each)
MAX_SAMPLES = 1 << 24


def collapse_label(label: str) -> str:
    """Fold digit runs to ``*`` so per-rank labels aggregate."""
    return _DIGITS.sub("*", label)


class SimProfiler:
    """Folded-stack occupancy of a virtual run, sampled in virtual time.

    Samples fall every ``interval`` virtual seconds, through the run's
    last event (:meth:`finish`); a state held over ``(t0, t1]`` is seen
    by the samples in that interval (:meth:`add`). Each shard counts
    into its own profiler; the parent :meth:`merge`-s them.
    """

    def __init__(self, interval: float):
        if not interval > 0:
            raise SchedError(
                f"profiler interval must be > 0 virtual seconds, got {interval}"
            )
        self.interval = float(interval)
        self.samples_taken = 0
        #: (name, state) -> occupancy count summed over all samples
        self.stacks: dict[tuple[str, str], int] = {}
        self._times = np.empty(0)

    def sample_times(self, until: float) -> np.ndarray:
        """The sample instants, through the first one past ``until``."""
        times = self._times
        while not times.size or times[-1] <= until:
            last = times[-1] if times.size else 0.0
            need = int((until - last) / self.interval) + 2
            if times.size + need > MAX_SAMPLES:
                raise SchedError(
                    f"a profile to t={until:g} at {self.interval:g} s takes "
                    f"over {MAX_SAMPLES} samples; raise the interval"
                )
            more = min(max(times.size, need), MAX_SAMPLES - times.size)
            steps = np.full(more + 1, self.interval)
            steps[0] = last
            # left to right, one rounding per sample: `s += interval`
            times = np.concatenate((times, np.add.accumulate(steps)[1:]))
        self._times = times
        return times

    def add(self, key: tuple[str, str], lo, hi) -> None:
        """Count the samples in each ``(lo[i], hi[i]]`` towards ``key``."""
        hi = np.asarray(hi, dtype=np.float64)
        if not hi.size:
            return
        times = self.sample_times(float(hi.max()))
        seen = int(np.searchsorted(times, hi, "right").sum()
                   - np.searchsorted(times, lo, "right").sum())
        if seen:
            self.stacks[key] = self.stacks.get(key, 0) + seen

    def merge(self, stacks: dict[tuple[str, str], int]) -> None:
        """Add a shard's partial counts."""
        for key, count in stacks.items():
            self.stacks[key] = self.stacks.get(key, 0) + count

    def finish(self, last_event: float) -> None:
        """Close the profile at the run's last event."""
        times = self.sample_times(last_event)
        self.samples_taken = int(np.searchsorted(times, last_event, "right"))

    # -- output -------------------------------------------------------------
    def folded(self) -> list[str]:
        """Flame-graph folded stacks: ``name;state count`` lines, sorted."""
        return [
            f"{name};{state} {count}"
            for (name, state), count in sorted(self.stacks.items())
        ]

    def write_folded(self, path) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("\n".join(self.folded()) + "\n")
        return target

    def render(self, *, width: int = 40) -> str:
        """ASCII occupancy summary (the ``observe flamegraph`` view)."""
        return render_stacks(
            self.stacks, samples=self.samples_taken, width=width
        )


def load_folded(path) -> dict[tuple[str, str], int]:
    """Parse a folded-stacks file back into ``(name, state) -> count``."""
    target = Path(path)
    if not target.exists():
        raise SchedError(f"profile file not found: {target}")
    stacks: dict[tuple[str, str], int] = {}
    for lineno, line in enumerate(target.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            stack, count = line.rsplit(" ", 1)
            name, state = stack.split(";", 1)
            stacks[(name, state)] = stacks.get((name, state), 0) + int(count)
        except ValueError as exc:
            raise SchedError(
                f"{target}:{lineno} is not a folded stack "
                f"('name;state count'): {line!r}"
            ) from exc
    return stacks


def render_stacks(
    stacks: dict[tuple[str, str], int],
    *,
    samples: int | None = None,
    width: int = 40,
) -> str:
    """ASCII occupancy bars for folded stacks, heaviest first."""
    if not stacks:
        return "no samples"
    total = sum(stacks.values())
    head = f"{total} process-samples"
    if samples is not None:
        head = f"{samples} samples, {head}"
    lines = [head]
    ranked = sorted(stacks.items(), key=lambda kv: (-kv[1], kv[0]))
    top = ranked[0][1]
    for (name, state), count in ranked:
        bar = "#" * max(1, round(width * count / top))
        share = 100.0 * count / total
        lines.append(f"{share:6.2f}%  {name};{state:<28} {bar}")
    return "\n".join(lines)
