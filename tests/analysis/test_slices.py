import numpy as np
import pytest

from repro.analysis.slices import slice_at
from repro.util.errors import ReproError


class TestSliceAt:
    @pytest.fixture
    def field(self):
        return np.arange(60, dtype=np.float64).reshape(3, 4, 5)

    def test_axis2(self, field):
        assert np.array_equal(slice_at(field, axis=2, index=1), field[:, :, 1])

    def test_axis0(self, field):
        assert np.array_equal(slice_at(field, axis=0, index=2), field[2])

    def test_center_default(self, field):
        assert np.array_equal(slice_at(field, axis=1), field[:, 2, :])

    def test_result_contiguous(self, field):
        assert slice_at(np.asfortranarray(field), axis=0, index=0).flags.c_contiguous

    def test_bad_axis(self, field):
        with pytest.raises(ReproError):
            slice_at(field, axis=3)

    def test_bad_index(self, field):
        with pytest.raises(ReproError):
            slice_at(field, axis=0, index=5)

    def test_non_3d(self):
        with pytest.raises(ReproError):
            slice_at(np.zeros((4, 4)))
