"""Experiment harness: regenerate every table and figure of the paper.

Submodules (one per experiment; see DESIGN.md's per-experiment index):

- :mod:`repro.bench.calibration` — every Frontier-calibrated constant,
  each annotated with the paper table/figure it comes from.
- :mod:`repro.bench.table2` — single-GCD stencil bandwidth comparison.
- :mod:`repro.bench.table3` — rocprof counter comparison.
- :mod:`repro.bench.fig5` — kernel/copy trace timeline.
- :mod:`repro.bench.fig6` — MPI weak scaling with per-rank variability.
- :mod:`repro.bench.fig7` — JIT vs. optimized bandwidth distributions.
- :mod:`repro.bench.fig8` — parallel I/O weak scaling.
- :mod:`repro.bench.listings` — Listing 1 (bpls provenance) and
  Listing 4 (kernel IR).

Each submodule exposes a ``run(...)`` returning a structured result and
a ``render(result)`` producing the paper-format text block; the
``benchmarks/`` pytest files call these.
"""

from repro.bench import calibration

__all__ = ["calibration"]
