"""Strong scaling model: an extension beyond the paper's evaluation.

The paper only measures weak scaling (constant 1024^3 per GPU). Strong
scaling — a fixed global problem split over more GPUs — is the natural
follow-up question for the same models: per-rank compute shrinks as
1/P while each face message shrinks only as P^(-2/3), so communication
fraction grows and parallel efficiency decays. The crossover scale
where exchange overtakes compute is exactly the kind of co-design
number the paper's conclusion motivates.

Reuses the calibrated kernel (roofline + cache) and network (LogGP +
placement) models; no new constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.frontier import FRONTIER, MachineSpec
from repro.cluster.placement import Placement
from repro.mpi.cart import dims_create
from repro.mpi.netmodel import HaloExchangeModel
from repro.util.errors import ConfigError


@dataclass(frozen=True)
class StrongScalingPoint:
    """One job size of a fixed-global-problem scaling curve."""

    nranks: int
    local_shape: tuple[int, int, int]
    kernel_seconds: float
    comm_seconds: float

    @property
    def step_seconds(self) -> float:
        return self.kernel_seconds + self.comm_seconds

    @property
    def comm_fraction(self) -> float:
        return self.comm_seconds / self.step_seconds

    def speedup_vs(self, baseline: "StrongScalingPoint") -> float:
        return baseline.step_seconds / self.step_seconds

    def efficiency_vs(self, baseline: "StrongScalingPoint") -> float:
        return self.speedup_vs(baseline) * baseline.nranks / self.nranks


class StrongScalingModel:
    """Fixed global grid, growing rank counts."""

    def __init__(
        self,
        *,
        global_shape: tuple[int, int, int] = (1024, 1024, 1024),
        backend: str = "julia",
        gpu_aware: bool = False,
        machine: MachineSpec = FRONTIER,
    ):
        self.global_shape = tuple(int(n) for n in global_shape)
        self.backend = backend
        self.gpu_aware = gpu_aware
        self.machine = machine

    def _local_shape(self, cart_dims) -> tuple[int, int, int]:
        local = []
        for n, d in zip(self.global_shape, cart_dims):
            if n % d:
                raise ConfigError(
                    f"global extent {n} not divisible by cart dim {d}"
                )
            local.append(n // d)
        return tuple(local)

    def run_point(self, nranks: int) -> StrongScalingPoint:
        from repro.gpu.proxy import grayscott_launch_cost

        cart_dims = dims_create(nranks, 3)
        local_shape = self._local_shape(cart_dims)
        if min(local_shape) < 4:
            raise ConfigError(
                f"{nranks} ranks leave local blocks of {local_shape}: too thin"
            )
        kernel = grayscott_launch_cost(local_shape, self.backend)
        placement = Placement(nranks, self.machine)
        halo = HaloExchangeModel(
            placement, cart_dims, local_shape, gpu_aware=self.gpu_aware
        )
        comm = float(halo.slice_step_seconds(0, min(nranks, 64)).max())
        return StrongScalingPoint(
            nranks=nranks,
            local_shape=local_shape,
            kernel_seconds=kernel.seconds,
            comm_seconds=comm,
        )

    def run(self, nranks_list=(1, 8, 64, 512, 4096)) -> list[StrongScalingPoint]:
        return [self.run_point(n) for n in nranks_list]

    def render(self, points: list[StrongScalingPoint]) -> str:
        from repro.util.tables import Table

        base = points[0]
        table = Table(
            ["ranks", "local grid", "kernel (ms)", "comm (ms)",
             "comm frac", "speedup", "efficiency"],
            title=(
                f"Strong scaling of a fixed {self.global_shape} problem "
                "(extension; the paper measures weak scaling only)"
            ),
        )
        for p in points:
            table.add_row(
                [
                    p.nranks,
                    "x".join(str(s) for s in p.local_shape),
                    p.kernel_seconds * 1e3,
                    p.comm_seconds * 1e3,
                    f"{p.comm_fraction*100:.1f}%",
                    f"{p.speedup_vs(base):.1f}x",
                    f"{p.efficiency_vs(base)*100:.0f}%",
                ]
            )
        return table.render()
