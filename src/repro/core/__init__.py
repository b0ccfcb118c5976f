"""The Gray-Scott workflow application (the paper's GrayScott.jl).

A 2-variable diffusion-reaction model (Section 3.1, Eqs. 1-3) solved
with forward-Euler time stepping and a 7-point Laplacian stencil on a
periodic 3D grid, decomposed over an MPI Cartesian communicator with
ghost-cell face exchange (Section 3.3), writing ADIOS2-style output
with visualization schema attributes (Section 3.4), and composed into
an end-to-end workflow with FAIR provenance.

Layers:

- :mod:`repro.core.params` / :mod:`repro.core.settings` — physics
  parameters and the JSON settings files of the paper's artifact;
- :mod:`repro.core.stencil` — the kernels, scalar bodies mirroring
  Listing 2 that run lowered to C;
- :mod:`repro.core.domain` — Cartesian decomposition, ghost geometry,
  and the per-face ``MPI_Type_vector`` datatypes;
- :mod:`repro.core.exchange` — the Listing 3 ghost exchange;
- :mod:`repro.core.simulation` — the time-stepping driver;
- :mod:`repro.core.writer` — ADIOS2-style output with provenance;
- :mod:`repro.core.restart` — checkpoint/restore;
- :mod:`repro.core.workflow` — simulate -> write -> analyze composition.
"""

from repro.core.campaign import Campaign, CampaignResult
from repro.core.execute import JobSpec, RunResult, execute_job
from repro.core.params import GrayScottParams, PEARSON_REGIMES
from repro.core.pipeline import Pipeline, PipelineRun
from repro.core.settings import GrayScottSettings
from repro.core.simulation import Simulation
from repro.core.workflow import Workflow, WorkflowReport

__all__ = [
    "Campaign",
    "CampaignResult",
    "JobSpec",
    "RunResult",
    "execute_job",
    "Pipeline",
    "PipelineRun",
    "GrayScottParams",
    "PEARSON_REGIMES",
    "GrayScottSettings",
    "Simulation",
    "Workflow",
    "WorkflowReport",
]
