"""In-situ diagnostics: global statistics without touching the disk.

Large campaigns cannot afford to write every step (the paper:
"drastically reducing the frequency of writes to the parallel file
system is often required", Section 3.4) — so monitoring happens
in-situ: each step, ranks reduce a handful of scalars and keep the time
series in memory. :class:`InSituMonitor` plugs into
``Simulation.run(on_step=...)`` and produces the series an analyst
would otherwise compute after the fact.

Parallel-correctness guarantee (tested): the series computed by an
8-rank run equals the serial run's, because every statistic is an
exact global reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.simulation import Simulation
from repro.util.errors import ConfigError


@dataclass
class StepStats:
    """Global statistics of one field at one step."""

    step: int
    vmin: float
    vmax: float
    mean: float
    l2: float  # sqrt of the global sum of squares / cells


class InSituMonitor:
    """Accumulates per-step global statistics of U and V.

    Usage::

        monitor = InSituMonitor(every=5)
        sim.run(100, on_step=monitor)
        series = monitor.series("V")
    """

    def __init__(self, *, every: int = 1, fields: tuple[str, ...] = ("u", "v")):
        if every <= 0:
            raise ConfigError(f"'every' must be positive, got {every}")
        bad = [f for f in fields if f not in ("u", "v")]
        if bad:
            raise ConfigError(f"unknown fields {bad}; monitor supports 'u'/'v'")
        self.every = every
        self.fields = fields
        self._series: dict[str, list[StepStats]] = {f: [] for f in fields}

    def __call__(self, sim: Simulation) -> None:
        if sim.step_count % self.every != 0:
            return
        for name in self.fields:
            self._series[name].append(self._global_stats(sim, name))

    def _global_stats(self, sim: Simulation, which: str) -> StepStats:
        data = sim.interior(which)
        cells = int(np.prod(sim.settings.shape))
        local = (
            float(data.min()),
            float(data.max()),
            float(data.sum()),
            float((data.astype(np.float64) ** 2).sum()),
        )
        if sim.cart is None:
            vmin, vmax, total, sq = local
        else:
            vmin = sim.cart.allreduce(local[0], "min")
            vmax = sim.cart.allreduce(local[1], "max")
            total = sim.cart.allreduce(local[2], "sum")
            sq = sim.cart.allreduce(local[3], "sum")
        return StepStats(
            step=sim.step_count,
            vmin=vmin,
            vmax=vmax,
            mean=total / cells,
            l2=float(np.sqrt(sq / cells)),
        )

    def series(self, which: str = "v") -> list[StepStats]:
        which = which.lower()
        if which not in self._series:
            raise ConfigError(f"monitor did not track field {which!r}")
        return list(self._series[which])

    def render(self, which: str = "v") -> str:
        from repro.util.tables import Table

        table = Table(
            ["step", "min", "max", "mean", "L2"],
            title=f"in-situ series of {which.upper()}",
        )
        for s in self.series(which):
            table.add_row([s.step, s.vmin, s.vmax, s.mean, s.l2])
        return table.render()
