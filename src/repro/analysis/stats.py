"""Field statistics and Gray-Scott pattern metrics.

``pattern_metrics`` quantifies the structures Pearson (1993) classifies
visually: the active-region fraction (cells where V exceeds a
threshold), the number of connected components ("spots"), and the
interface density — enough to distinguish trivial/decayed states from
spot and labyrinth regimes in the pattern-gallery example.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ReproError


def field_summary(field: np.ndarray) -> dict:
    """min/max/mean/std + active-cell count of one field snapshot."""
    if field.size == 0:
        raise ReproError("cannot summarize an empty field")
    data = np.asarray(field, dtype=np.float64)
    return {
        "min": float(data.min()),
        "max": float(data.max()),
        "mean": float(data.mean()),
        "std": float(data.std()),
        "active_cells": int((data > 0.1).sum()),
    }


def histogram(field: np.ndarray, *, bins: int = 32, value_range=None) -> tuple:
    """(counts, edges) histogram of a field (Fig. 7-style distributions)."""
    return np.histogram(np.asarray(field).ravel(), bins=bins, range=value_range)


def pattern_metrics(v_field: np.ndarray, *, threshold: float = 0.1) -> dict:
    """Structure metrics of the V concentration field.

    - ``active_fraction``: share of cells above threshold;
    - ``components``: connected components of the active region
      (spots ~ many small components, labyrinths ~ few large ones);
    - ``interface_density``: fraction of active cells adjacent to
      inactive ones (boundary sharpness);
    - ``largest_component_fraction``: size of the biggest structure
      relative to all active cells.
    """
    from scipy import ndimage  # only here: the run path stays scipy-free

    v = np.asarray(v_field, dtype=np.float64)
    active = v > threshold
    total = active.size
    n_active = int(active.sum())
    if n_active == 0:
        return {
            "active_fraction": 0.0,
            "components": 0,
            "interface_density": 0.0,
            "largest_component_fraction": 0.0,
        }
    labels, n_components = ndimage.label(active)
    sizes = ndimage.sum_labels(np.ones_like(labels), labels, range(1, n_components + 1))
    eroded = ndimage.binary_erosion(active)
    interface = int((active & ~eroded).sum())
    return {
        "active_fraction": n_active / total,
        "components": int(n_components),
        "interface_density": interface / n_active,
        "largest_component_fraction": float(sizes.max()) / n_active,
    }


def classify_pattern(v_field: np.ndarray, *, threshold: float = 0.1) -> str:
    """Coarse Pearson-style regime label from :func:`pattern_metrics`."""
    m = pattern_metrics(v_field, threshold=threshold)
    if m["active_fraction"] < 1e-4:
        return "decayed"
    if m["active_fraction"] > 0.9:
        return "uniform"
    if m["components"] >= 8 and m["largest_component_fraction"] < 0.5:
        return "spots"
    if m["interface_density"] > 0.45:
        return "labyrinth"
    return "blob"
