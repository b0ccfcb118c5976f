"""Figure 8: parallel I/O weak scaling (write wall-clock + bandwidth).

Two layers:

- :func:`run_frontier` — the Lustre-model reproduction of the paper's
  experiment (one output step of each Figure 6 case; BP5 one subfile
  per node; up to 434 GB/s at 512 nodes);
- :func:`run_mini` — real BP5 writes through our engine at mini scale,
  measuring actual wall time: the binding-overhead claim exercised on a
  real code path.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.adios.fsmodel import IoPipelinePoint, IoScalingPoint, IoWeakScalingModel
from repro.bench.calibration import PAPER_FIG8
from repro.bench.sweep import RANK_LADDER
from repro.util.tables import Table
from repro.util.units import GB, TB


def run_frontier(
    *, ranks=RANK_LADDER, local_cells: int = 1024, seed: int = 2023,
) -> list[IoScalingPoint]:
    model = IoWeakScalingModel(local_shape=(local_cells,) * 3, seed=seed)
    return model.run(ranks)


def run_pipeline(
    *,
    nranks: int = 4096,
    steps: int = 4,
    local_cells: int = 1024,
    seed: int = 2023,
    overlap: bool = True,
) -> IoPipelinePoint:
    """The async-drain schedule: writes of step k overlap solve k+1."""
    model = IoWeakScalingModel(local_shape=(local_cells,) * 3, seed=seed)
    return model.run_pipeline(nranks, steps=steps, overlap=overlap)


def render_pipeline(point: IoPipelinePoint) -> str:
    mode = "async drain (overlapped)" if point.overlap else "blocking writes"
    return (
        f"I/O pipeline, {point.nranks} ranks x {point.steps} output steps, "
        f"{mode}: {point.elapsed_seconds:.1f} s scheduled vs "
        f"{point.serial_seconds:.1f} s serial "
        f"({point.overlap_speedup:.3f}x)"
    )


def render_frontier(points: list[IoScalingPoint]) -> str:
    table = Table(
        ["MPI procs", "nodes", "data (TB)", "write (s)", "bandwidth (GB/s)"],
        title="Figure 8: parallel I/O weak scaling (modeled, 1 output step)",
    )
    for p in points:
        table.add_row(
            [p.nranks, p.nnodes, p.total_bytes / TB, p.write_seconds,
             p.write_bandwidth / GB]
        )
    lines = [table.render()]
    peak = PAPER_FIG8["max_write_bandwidth_gb_s"]
    best = max(p.write_bandwidth for p in points) / GB
    lines.append(
        f"max bandwidth {best:.0f} GB/s (paper: {peak:.0f} GB/s, "
        f"~{PAPER_FIG8['peak_fraction']*100:.0f}% of the 5.5 TB/s filesystem peak)"
    )
    return "\n".join(lines)


def shape_checks(points: list[IoScalingPoint]) -> dict[str, bool]:
    by_ranks = {p.nranks: p for p in points}
    checks = {
        "bandwidth_grows_with_scale": all(
            a.write_bandwidth < b.write_bandwidth
            for a, b in zip(points, points[1:])
        ),
    }
    if 4096 in by_ranks:
        bw = by_ranks[4096].write_bandwidth
        checks["near_434_gb_s_at_512_nodes"] = 350 * GB < bw < 520 * GB
        checks["under_10pct_of_fs_peak"] = bw < 0.10 * 5.5 * TB
    if 8 in by_ranks and 4096 in by_ranks:
        # "write times are fairly flat" — compared from the first case
        # that fills a node (8 ranks); the 1-rank case writes only 1/8
        # of a node's data and is naturally faster
        ratio = by_ranks[4096].write_seconds / by_ranks[8].write_seconds
        checks["write_times_fairly_flat"] = ratio < 2.0
    return checks


# ---------------------------------------------------------------------------
# mini-scale real I/O
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MiniIoPoint:
    nranks: int
    total_bytes: int
    write_seconds: float

    @property
    def write_bandwidth(self) -> float:
        return self.total_bytes / self.write_seconds


def run_mini(*, local_cells: int = 16, ranks=(1, 2, 4, 8)) -> list[MiniIoPoint]:
    """Actual BP5 writes of a decomposed field, wall-clock measured."""
    import numpy as np

    from repro.adios.api import Adios
    from repro.mpi.executor import run_spmd

    points = []
    for nranks in ranks:
        tmp = Path(tempfile.mkdtemp(prefix="fig8-mini-"))
        path = tmp / "out.bp"
        shape = (local_cells, local_cells, local_cells * nranks)

        def worker(comm):
            adios = Adios()
            io = adios.declare_io("fig8")
            start = (0, 0, local_cells * comm.rank)
            count = (local_cells, local_cells, local_cells)
            u = io.define_variable("U", np.float64, shape=shape, start=start, count=count)
            v = io.define_variable("V", np.float64, shape=shape, start=start, count=count)
            block = np.full(count, float(comm.rank), order="F")
            begin = time.perf_counter()
            with io.open(str(path), "w", comm=comm) as engine:
                engine.begin_step()
                engine.put(u, block)
                engine.put(v, block)
                engine.end_step()
            return time.perf_counter() - begin

        if nranks == 1:
            import numpy as np  # noqa: F811 - local reuse

            adios = Adios()
            io = adios.declare_io("fig8")
            u = io.define_variable("U", np.float64, shape=shape, count=shape)
            v = io.define_variable("V", np.float64, shape=shape, count=shape)
            block = np.zeros(shape, order="F")
            begin = time.perf_counter()
            with io.open(str(path), "w") as engine:
                engine.begin_step()
                engine.put(u, block)
                engine.put(v, block)
                engine.end_step()
            seconds = [time.perf_counter() - begin]
        else:
            seconds = run_spmd(worker, nranks, timeout=120.0)
        total = 2 * 8 * local_cells**3 * nranks
        points.append(
            MiniIoPoint(
                nranks=nranks,
                total_bytes=total,
                write_seconds=max(seconds),
            )
        )
        shutil.rmtree(tmp, ignore_errors=True)
    return points


def render_mini(points: list[MiniIoPoint]) -> str:
    table = Table(
        ["ranks", "data (MB)", "write (s)", "bandwidth (MB/s)"],
        title="Figure 8 (mini): real BP5 writes on this machine",
    )
    for p in points:
        table.add_row(
            [p.nranks, p.total_bytes / 1e6, p.write_seconds,
             p.write_bandwidth / 1e6]
        )
    return table.render()
