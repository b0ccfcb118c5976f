"""Counterfactual performance prediction over (post-rewrite) IR.

Turns "what would fusion buy on an MI250x at 1024^3?" — the question
the paper's Tables 2/3 gap analysis circles — into a computation: build
the workflow module, run a pass pipeline, and feed both the original
and the rewritten IR to the same traffic models
(:class:`~repro.gpu.cache.StencilTrafficModel` analytically,
:class:`~repro.gpu.cache.TraceCacheSim` exactly at test sizes).

The analytic path charges each launch its streaming passes in
isolation — the conservative large-array regime where nothing survives
in cache between launches — so eliminating a launch's loads always
shows up. The simulator path keeps one LRU state across launches, so it
also answers when *cache residency alone* would have saved the traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.frontier import GcdSpec
from repro.gpu.cache import StencilTrafficModel, TraceCacheSim, TrafficEstimate
from repro.ir.core import Module
from repro.ir.passes import DEFAULT_PIPELINE, PassManager, PipelineReport


@dataclass(frozen=True)
class FuncCost:
    """One launch's modeled op counts, traffic, and seconds."""

    name: str
    unique_loads: int
    unique_stores: int
    flops: int
    rand_calls: int
    traffic: TrafficEstimate
    seconds: float

    def to_json(self) -> dict:
        return {
            "func": self.name,
            "unique_loads": self.unique_loads,
            "unique_stores": self.unique_stores,
            "flops": self.flops,
            "rand_calls": self.rand_calls,
            "fetch_bytes": self.traffic.fetch_bytes,
            "write_bytes": self.traffic.write_bytes,
            "seconds": self.seconds,
        }


@dataclass(frozen=True)
class ModuleCost:
    """Summed launch costs for one module at one shape."""

    shape: tuple[int, int, int]
    itemsize: int
    funcs: tuple[FuncCost, ...] = ()

    @property
    def fetch_bytes(self) -> float:
        return sum(f.traffic.fetch_bytes for f in self.funcs)

    @property
    def write_bytes(self) -> float:
        return sum(f.traffic.write_bytes for f in self.funcs)

    @property
    def total_bytes(self) -> float:
        return self.fetch_bytes + self.write_bytes

    @property
    def seconds(self) -> float:
        return sum(f.seconds for f in self.funcs)

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape),
            "itemsize": self.itemsize,
            "fetch_bytes": self.fetch_bytes,
            "write_bytes": self.write_bytes,
            "total_bytes": self.total_bytes,
            "seconds": self.seconds,
            "funcs": [f.to_json() for f in self.funcs],
        }


def predict_module(
    module: Module,
    *,
    shape: tuple[int, int, int],
    itemsize: int | None = None,
    spec: GcdSpec | None = None,
) -> ModuleCost:
    """Analytic per-launch traffic + memory-bound seconds for a module."""
    spec = spec or GcdSpec()
    model = StencilTrafficModel(spec)
    costs = []
    for func in module.funcs:
        size = itemsize if itemsize is not None else func.itemsize
        traffic = model.estimate_func(func, shape, size)
        seconds = traffic.total_bytes / spec.hbm_peak_bytes_per_s
        costs.append(FuncCost(
            name=func.name,
            unique_loads=len(func.unique_loads),
            unique_stores=len(func.unique_stores),
            flops=func.flops,
            rand_calls=func.rand_calls,
            traffic=traffic,
            seconds=seconds,
        ))
    return ModuleCost(
        shape=tuple(shape),
        itemsize=itemsize if itemsize is not None else (
            max((f.itemsize for f in module.funcs), default=8)
        ),
        funcs=tuple(costs),
    )


def simulate_module(
    module: Module,
    *,
    shape: tuple[int, int, int],
    itemsize: int | None = None,
    capacity_bytes: int | None = None,
    spec: GcdSpec | None = None,
) -> ModuleCost:
    """Exact LRU simulation of the module's launches, state carried over.

    One :class:`TraceCacheSim` spans every launch, so an unfused module
    is only charged re-fetches the cache actually incurs — the honest
    baseline a fusion counterfactual must beat.
    """
    spec = spec or GcdSpec()
    sim = TraceCacheSim(
        capacity_bytes if capacity_bytes is not None else spec.tcc_bytes,
        spec.cache_line_bytes,
    )
    costs = []
    for func in module.funcs:
        size = itemsize if itemsize is not None else func.itemsize
        traffic = sim.multi_sweep_func(func, shape, size)
        seconds = traffic.total_bytes / spec.hbm_peak_bytes_per_s
        costs.append(FuncCost(
            name=func.name,
            unique_loads=len(func.unique_loads),
            unique_stores=len(func.unique_stores),
            flops=func.flops,
            rand_calls=func.rand_calls,
            traffic=traffic,
            seconds=seconds,
        ))
    return ModuleCost(
        shape=tuple(shape),
        itemsize=itemsize if itemsize is not None else (
            max((f.itemsize for f in module.funcs), default=8)
        ),
        funcs=tuple(costs),
    )


@dataclass(frozen=True)
class Counterfactual:
    """Before/after costs of one pass pipeline on one module."""

    module: str
    passes: tuple[str, ...]
    pipeline: PipelineReport
    before: ModuleCost
    after: ModuleCost
    op_counts_before: dict[str, int] = field(default_factory=dict)
    op_counts_after: dict[str, int] = field(default_factory=dict)

    @property
    def bytes_saved(self) -> float:
        return self.before.total_bytes - self.after.total_bytes

    @property
    def speedup(self) -> float:
        if self.after.seconds == 0:
            return 1.0
        return self.before.seconds / self.after.seconds

    def to_json(self) -> dict:
        return {
            "module": self.module,
            "passes": list(self.passes),
            "pipeline": self.pipeline.to_json(),
            "before": self.before.to_json(),
            "after": self.after.to_json(),
            "op_counts_before": dict(self.op_counts_before),
            "op_counts_after": dict(self.op_counts_after),
            "bytes_saved": self.bytes_saved,
            "speedup": self.speedup,
        }

    def render(self) -> str:
        lines = [
            f"counterfactual for module {self.module} at "
            f"{'x'.join(str(n) for n in self.before.shape)} "
            f"(passes: {', '.join(self.passes)})",
            self.pipeline.render(),
            f"  ops     {self.op_counts_before} -> {self.op_counts_after}",
            f"  fetch   {self.before.fetch_bytes / 1e9:.3f} GB -> "
            f"{self.after.fetch_bytes / 1e9:.3f} GB",
            f"  write   {self.before.write_bytes / 1e9:.3f} GB -> "
            f"{self.after.write_bytes / 1e9:.3f} GB",
            f"  seconds {self.before.seconds * 1e3:.3f} ms -> "
            f"{self.after.seconds * 1e3:.3f} ms  "
            f"(speedup {self.speedup:.2f}x)",
        ]
        return "\n".join(lines)


def counterfactual(
    module: Module,
    *,
    shape: tuple[int, int, int],
    passes=DEFAULT_PIPELINE,
    itemsize: int | None = None,
    spec: GcdSpec | None = None,
    exact: bool = False,
    capacity_bytes: int | None = None,
) -> Counterfactual:
    """Run ``passes`` over ``module`` and cost both sides identically."""
    manager = PassManager(passes)
    rewritten, pipeline = manager.run(module)
    if exact:
        before = simulate_module(
            module, shape=shape, itemsize=itemsize, spec=spec,
            capacity_bytes=capacity_bytes,
        )
        after = simulate_module(
            rewritten, shape=shape, itemsize=itemsize, spec=spec,
            capacity_bytes=capacity_bytes,
        )
    else:
        before = predict_module(
            module, shape=shape, itemsize=itemsize, spec=spec
        )
        after = predict_module(
            rewritten, shape=shape, itemsize=itemsize, spec=spec
        )
    return Counterfactual(
        module=module.name,
        passes=tuple(
            p if isinstance(p, str) else p.name
            for p in (passes if not isinstance(passes, str) else
                      [s.strip() for s in passes.split(",") if s.strip()])
        ),
        pipeline=pipeline,
        before=before,
        after=after,
        op_counts_before=module.op_counts(),
        op_counts_after=rewritten.op_counts(),
    )
