"""Figure 7: bandwidth distributions, JIT first run vs. optimized code.

The paper runs 20 simulation steps on 4,096 GPUs twice — once cold
(first launch pays JIT compilation) and once warm — and plots the
per-GPU effective-bandwidth distributions. The JIT run averages ~8% of
the optimized bandwidth (a ~12.5x cost).

Model: per GCD, the optimized effective bandwidth is the roofline
prediction with a small per-device spread (KERNEL_BANDWIDTH_SIGMA);
the JIT-run bandwidth divides the same 20 steps of useful bytes by
``20 * t_step + t_compile`` with a lognormal compile-time spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench import calibration as cal
from repro.gpu.proxy import grayscott_launch_cost, jit_compile_seconds
from repro.util.rngs import RngStream
from repro.util.tables import Table
from repro.util.units import GB


@dataclass(frozen=True)
class Fig7Result:
    ngpus: int
    steps: int
    optimized_gb_s: np.ndarray  # per-GPU effective bandwidth, warm
    jit_gb_s: np.ndarray  # per-GPU effective bandwidth, cold window

    @property
    def jit_fraction(self) -> float:
        """Mean JIT-run bandwidth as a fraction of the optimized mean."""
        return float(self.jit_gb_s.mean() / self.optimized_gb_s.mean())

    @property
    def jit_cost_factor(self) -> float:
        """Wall-clock cost factor of the cold window vs. warm (paper: ~12.5x)."""
        return 1.0 / self.jit_fraction


def run(
    *,
    ngpus: int = 4096,
    steps: int = 20,
    shape: tuple[int, int, int] = (1024, 1024, 1024),
    backend: str = "julia",
    seed: int = 2023,
    aot: bool = False,
    warm: bool = False,
) -> Fig7Result:
    """``aot=True`` ablates the JIT: compile cost paid offline
    (the mechanism the paper mentions but did not explore).
    ``warm=True`` models a warm start from the JIT disk cache
    (:mod:`repro.gpu.jitcache`): the first launch loads a compiled
    kernel (:data:`~repro.bench.calibration.JIT_WARM_LOAD_SECONDS`)
    instead of compiling, closing the 12.5x gap to ~1x."""
    cost = grayscott_launch_cost(shape, backend)
    effective_bytes = cost.effective_bytes
    stream = RngStream(seed, ("fig7",))
    gen = stream.generator(ngpus)
    kernel_jitter = gen.normal(1.0, cal.KERNEL_BANDWIDTH_SIGMA, size=ngpus)
    step_seconds = cost.seconds / np.clip(kernel_jitter, 0.5, None)
    optimized = effective_bytes / step_seconds

    if aot:
        compile_base = 0.0
    elif warm:
        compile_base = cal.JIT_WARM_LOAD_SECONDS
    else:
        compile_base = jit_compile_seconds(backend)
    compile_seconds = compile_base * np.exp(
        gen.normal(0.0, cal.JIT_COMPILE_SIGMA, size=ngpus)
    )
    jit_window = steps * step_seconds + compile_seconds
    jit_bw = steps * effective_bytes / jit_window
    return Fig7Result(
        ngpus=ngpus,
        steps=steps,
        optimized_gb_s=optimized / GB,
        jit_gb_s=jit_bw / GB,
    )


def run_warm_comparison(
    *,
    ngpus: int = 4096,
    steps: int = 20,
    shape: tuple[int, int, int] = (1024, 1024, 1024),
    backend: str = "julia",
    seed: int = 2023,
) -> tuple[Fig7Result, Fig7Result]:
    """(cold, warm) Fig. 7 variants over identical device jitter draws."""
    cold = run(ngpus=ngpus, steps=steps, shape=shape, backend=backend,
               seed=seed)
    warm = run(ngpus=ngpus, steps=steps, shape=shape, backend=backend,
               seed=seed, warm=True)
    return cold, warm


def render_warm(cold: Fig7Result, warm: Fig7Result) -> str:
    """The warm-start variant table: loading compiled kernels closes the gap."""
    table = Table(
        ["first-launch window", "mean (GB/s)", "p5", "p95", "cost factor"],
        title=(
            f"Figure 7 variant: cold vs. warm first launch over "
            f"{cold.ngpus} GPUs, {cold.steps} steps (modeled)"
        ),
    )
    for label, result in (("cold (full JIT)", cold),
                          ("warm (persisted plans)", warm)):
        data = result.jit_gb_s
        table.add_row(
            [label, float(data.mean()),
             float(np.percentile(data, 5)), float(np.percentile(data, 95)),
             f"{result.jit_cost_factor:.2f}x"]
        )
    closing = cold.jit_cost_factor / warm.jit_cost_factor
    lines = [table.render()]
    lines.append(
        f"warm start closes the cold/warm gap {closing:.1f}x: "
        f"{cold.jit_cost_factor:.1f}x cold "
        f"(paper: ~{cal.PAPER_FIG7['jit_cost_factor']:.1f}x) -> "
        f"{warm.jit_cost_factor:.2f}x warm "
        f"(plan load ~{cal.JIT_WARM_LOAD_SECONDS:.2f} s vs. full compile)"
    )
    return "\n".join(lines)


def warm_shape_checks(cold: Fig7Result, warm: Fig7Result) -> dict[str, bool]:
    return {
        "cold_cost_near_12x": 8.0 < cold.jit_cost_factor < 20.0,
        "warm_cost_near_1x": warm.jit_cost_factor < 1.2,
        "warm_at_least_5x_better": (
            cold.jit_cost_factor / warm.jit_cost_factor > 5.0
        ),
        "warm_still_below_optimized": float(warm.jit_gb_s.mean())
        < float(warm.optimized_gb_s.mean()),
    }


def histogram(samples: np.ndarray, *, bins: int = 24) -> list[tuple[float, int]]:
    counts, edges = np.histogram(samples, bins=bins)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return list(zip(centers.tolist(), counts.tolist()))


def render(result: Fig7Result) -> str:
    table = Table(
        ["distribution", "mean (GB/s)", "p5", "p95"],
        title=(
            f"Figure 7: effective bandwidth over {result.ngpus} GPUs, "
            f"{result.steps} steps (modeled)"
        ),
    )
    for label, data in (
        ("JIT first run", result.jit_gb_s),
        ("optimized", result.optimized_gb_s),
    ):
        table.add_row(
            [label, float(data.mean()),
             float(np.percentile(data, 5)), float(np.percentile(data, 95))]
        )
    lines = [table.render()]
    lines.append(
        f"JIT-run bandwidth = {result.jit_fraction*100:.1f}% of optimized "
        f"(paper: ~{cal.PAPER_FIG7['jit_bandwidth_fraction']*100:.0f}%), "
        f"cost factor {result.jit_cost_factor:.1f}x "
        f"(paper: ~{cal.PAPER_FIG7['jit_cost_factor']:.1f}x)"
    )
    for label, data in (
        ("JIT", result.jit_gb_s),
        ("optimized", result.optimized_gb_s),
    ):
        lines.append(f"{label} histogram:")
        hist = histogram(data)
        peak = max(c for _, c in hist) or 1
        for center, count in hist:
            bar = "#" * int(40 * count / peak)
            lines.append(f"  {center:8.1f} GB/s |{bar}")
    return "\n".join(lines)


def shape_checks(result: Fig7Result) -> dict[str, bool]:
    return {
        "jit_fraction_near_8pct": 0.04 < result.jit_fraction < 0.16,
        "cost_factor_near_12x": 8.0 < result.jit_cost_factor < 20.0,
        "distributions_disjoint": float(result.jit_gb_s.max())
        < float(result.optimized_gb_s.min()),
        "optimized_near_table2": 250.0
        < float(result.optimized_gb_s.mean())
        < 400.0,
    }
