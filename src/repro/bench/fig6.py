"""Figure 6: weak scaling with per-process wall-clock variability.

Two layers, per the substitution rule:

- :func:`run_frontier` — the modeled reproduction of the paper's runs
  (1 -> 4,096 GPUs, 1024^3 cells each) via
  :class:`repro.mpi.netmodel.WeakScalingModel`;
- :func:`run_mini` — *real* SPMD executions of the full solver at small
  scale on the thread-backed MPI substrate, demonstrating that the
  binding layers add no overhead: per-rank wall-clock stays flat as
  ranks grow with constant local work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bench.calibration import PAPER_FIG6_VARIABILITY
from repro.bench.sweep import RANK_LADDER
from repro.mpi.executor import run_spmd
from repro.mpi.netmodel import WeakScalingModel, WeakScalingPoint
from repro.util.tables import Table


def run_frontier(
    *,
    steps: int = 20,
    local_cells: int = 1024,
    ranks=RANK_LADDER,
    seed: int = 2023,
    overlap: bool = False,
) -> list[WeakScalingPoint]:
    model = WeakScalingModel(
        local_shape=(local_cells,) * 3, steps=steps, backend="julia",
        seed=seed, overlap=overlap,
    )
    return model.run(ranks)


def render_frontier(points: list[WeakScalingPoint]) -> str:
    table = Table(
        ["MPI procs (GPUs)", "nodes", "min (s)", "mean (s)", "max (s)",
         "variability", "paper band"],
        title="Figure 6: weak scaling, per-process wall-clock (modeled)",
    )
    for p in points:
        band = PAPER_FIG6_VARIABILITY.get(p.nranks)
        band_text = f"{band[0]*100:.0f}-{band[1]*100:.0f}%" if band else "-"
        table.add_row(
            [p.nranks, p.nnodes, p.min_seconds, p.mean_seconds, p.max_seconds,
             f"{p.variability*100:.1f}%", band_text]
        )
    return table.render()


def shape_checks(points: list[WeakScalingPoint]) -> dict[str, bool]:
    by_ranks = {p.nranks: p for p in points}
    checks = {}
    if 512 in by_ranks:
        checks["small_variability_at_512"] = by_ranks[512].variability < 0.05
    if 4096 in by_ranks:
        checks["large_variability_at_4096"] = 0.08 < by_ranks[4096].variability < 0.20
    if 1 in by_ranks and 4096 in by_ranks:
        # weak scaling: mean per-process time grows only mildly
        checks["weak_scaling_flat"] = (
            by_ranks[4096].mean_seconds / by_ranks[1].mean_seconds < 1.25
        )
    return checks


# ---------------------------------------------------------------------------
# mini-scale real execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MiniScalingPoint:
    nranks: int
    local_cells: int
    steps: int
    rank_seconds: list[float]

    @property
    def mean_seconds(self) -> float:
        return sum(self.rank_seconds) / len(self.rank_seconds)

    @property
    def max_seconds(self) -> float:
        return max(self.rank_seconds)


def run_mini(
    *, local_cells: int = 12, steps: int = 5, ranks=(1, 2, 4, 8)
) -> list[MiniScalingPoint]:
    """Real weak scaling of the full solver on the thread substrate.

    The global domain grows with the rank count so local work stays
    constant (1D decomposition along the last axis keeps the per-rank
    block shape identical at every size).
    """
    from repro.core.settings import GrayScottSettings
    from repro.core.simulation import Simulation

    points = []
    for nranks in ranks:
        settings = GrayScottSettings(
            L=local_cells, nz=local_cells * nranks, steps=steps, noise=0.01
        )
        cart_dims = (1, 1, nranks)

        def worker(comm):
            sim = Simulation(settings, comm, cart_dims=cart_dims)
            start = time.perf_counter()
            sim.run(steps)
            return time.perf_counter() - start

        if nranks == 1:
            sim = Simulation(settings)
            start = time.perf_counter()
            sim.run(steps)
            seconds = [time.perf_counter() - start]
        else:
            seconds = run_spmd(worker, nranks, timeout=120.0)
        points.append(
            MiniScalingPoint(
                nranks=nranks,
                local_cells=local_cells,
                steps=steps,
                rank_seconds=seconds,
            )
        )
    return points


def render_mini(points: list[MiniScalingPoint]) -> str:
    table = Table(
        ["ranks", "global cells", "mean (s)", "max (s)"],
        title=(
            "Figure 6 (mini): real SPMD weak scaling of the solver "
            f"({points[0].local_cells}^3-per-rank local blocks)"
        ),
    )
    for p in points:
        table.add_row(
            [p.nranks, f"{p.local_cells}^3 x {p.nranks}", p.mean_seconds, p.max_seconds]
        )
    return table.render()
