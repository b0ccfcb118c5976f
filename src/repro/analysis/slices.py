"""2D slice extraction from 3D fields."""

from __future__ import annotations

import numpy as np

from repro.util.errors import ReproError


def slice_at(field: np.ndarray, *, axis: int = 2, index: int | None = None) -> np.ndarray:
    """Extract the 2D plane ``index`` along ``axis`` of a 3D field.

    ``index=None`` takes the centre plane (the paper's Figure 2/9 view).
    """
    if field.ndim != 3:
        raise ReproError(f"slice_at expects a 3D field, got shape {field.shape}")
    if not 0 <= axis < 3:
        raise ReproError(f"axis must be 0..2, got {axis}")
    if index is None:
        index = field.shape[axis] // 2
    if not 0 <= index < field.shape[axis]:
        raise ReproError(
            f"index {index} outside axis {axis} of extent {field.shape[axis]}"
        )
    selector: list = [slice(None)] * 3
    selector[axis] = index
    return np.ascontiguousarray(field[tuple(selector)])
