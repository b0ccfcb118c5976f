"""Wall-clock and simulated-clock timing.

Two distinct notions of time run through the package:

- **Wall time** (:class:`WallTimer`): how long the Python code
  actually takes. Used by the mini-scale benchmarks.
- **Simulated time** (:class:`SimClock`): the modeled Frontier time a
  performance model predicts (kernel durations from the roofline model,
  message latencies from the network model, write times from the Lustre
  model). Used by the Frontier-scale experiment reproductions.

Keeping them in separate types prevents the classic modeling bug of
adding a modeled duration to a measured one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace


class WallTimer:
    """Context manager measuring elapsed wall time in seconds.

    >>> with WallTimer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "WallTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        assert self._start is not None
        self.elapsed = time.perf_counter() - self._start


@dataclass
class SimClock:
    """A monotonically advancing *modeled* clock.

    Performance models call :meth:`advance` with modeled durations;
    :attr:`now` is the modeled timestamp. ``advance_to`` supports
    max-style synchronization (e.g. a barrier completes at the max of
    participant arrival times).
    """

    now: float = 0.0

    def advance(self, seconds: float) -> float:
        """Advance by a modeled duration; returns the new timestamp."""
        if not math.isfinite(seconds) or seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds}")
        self.now += seconds
        return self.now

    def advance_to(self, timestamp: float, *, strict: bool = False) -> float:
        """Advance to at least ``timestamp``; the clock never runs backwards.

        A past timestamp is a no-op (max-style synchronization) unless
        ``strict=True``, in which case it raises — the discrete-event
        engine drives its clock strictly, so a backwards event exposes
        a scheduling bug instead of being silently absorbed.
        """
        if math.isnan(timestamp):
            raise ValueError("cannot advance clock to NaN")
        if timestamp < self.now:
            if strict:
                raise ValueError(
                    f"clock cannot run backwards: advance_to({timestamp}) "
                    f"at now={self.now}"
                )
            return self.now
        self.now = timestamp
        return self.now

    def copy(self) -> "SimClock":
        """A detached copy; preserves subclass fields by construction."""
        return replace(self)
