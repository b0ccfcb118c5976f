"""Data analysis: the "JupyterHub side" of the workflow (paper Fig. 9).

The paper closes the loop by reading the ADIOS2 datasets back in a
Julia Jupyter notebook and plotting 2D slices with Makie. This package
is that stage: a high-level dataset reader over the BP5 files the
solver wrote, slice extraction, pattern statistics (including a
Pearson-regime classifier), and terminal-friendly ASCII rendering in
place of Makie heatmaps.
"""

from repro.analysis.reader import GrayScottDataset
from repro.analysis.slices import slice_at
from repro.analysis.stats import field_summary, pattern_metrics, histogram
from repro.analysis.render import ascii_heatmap
from repro.analysis.spectrum import (
    dominant_wavelength,
    radial_power_spectrum,
)

__all__ = [
    "GrayScottDataset",
    "slice_at",
    "field_summary",
    "pattern_metrics",
    "histogram",
    "ascii_heatmap",
    "dominant_wavelength",
    "radial_power_spectrum",
]
