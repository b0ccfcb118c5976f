"""repro — a Python reproduction of the SC-W 2023 study
"Julia as a Unifying End-to-End Workflow Language on the Frontier
Exascale System" (Godoy et al.).

The package rebuilds, in plain Python/NumPy, every system the paper's
evaluation touches:

- :mod:`repro.core` — the Gray-Scott 2-variable diffusion-reaction
  application (the paper's ``GrayScott.jl``), including the 7-point
  stencil solver, MPI Cartesian domain decomposition with ghost-cell
  exchange, ADIOS2-style output, checkpoint/restart, and an end-to-end
  workflow driver with FAIR provenance.
- :mod:`repro.gpu` — a functional + performance simulator of Frontier's
  AMD MI250x GCDs: device arrays, workgroup/workitem kernel launches, a
  tracing JIT that lowers kernels to an LLVM-like IR, a TCC (L2) cache
  model, a roofline timing model with per-backend (HIP vs. Julia)
  codegen profiles, and rocprof-style views of the device's traced
  spans.
- :mod:`repro.mpi` — a message-passing substrate: blocking and
  nonblocking point-to-point with tag matching, tree-based collectives,
  Cartesian topologies, strided MPI datatypes, an SPMD thread executor,
  and a LogGP-style network performance model for Frontier-scale runs.
- :mod:`repro.adios` — an ADIOS2-workalike parallel I/O library with a
  BP5-style on-disk format (data subfiles + metadata index), step-based
  writer/reader engines, a ``bpls`` provenance lister, and a Lustre
  file-system performance model.
- :mod:`repro.cluster` — the Frontier machine model (Table 1) and rank
  placement.
- :mod:`repro.analysis` — the "Jupyter side" of the workflow: dataset
  readers, 2D slices, pattern statistics, and ASCII rendering.
- :mod:`repro.bench` — the experiment harness that regenerates every
  table and figure of the paper's evaluation section.

Quickstart::

    from repro import GrayScottSettings, Simulation

    settings = GrayScottSettings(L=64, steps=200, plotgap=50)
    sim = Simulation.from_settings(settings)
    sim.run()
"""

from repro._version import __version__

__all__ = [
    "__version__",
    "GrayScottParams",
    "GrayScottSettings",
    "Simulation",
    "Workflow",
    "WorkflowReport",
]

_LAZY = {
    "GrayScottParams": ("repro.core.params", "GrayScottParams"),
    "GrayScottSettings": ("repro.core.settings", "GrayScottSettings"),
    "Simulation": ("repro.core.simulation", "Simulation"),
    "Workflow": ("repro.core.workflow", "Workflow"),
    "WorkflowReport": ("repro.core.workflow", "WorkflowReport"),
}


def __getattr__(name: str):
    """Lazy top-level exports so subpackages stay independently importable."""
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
