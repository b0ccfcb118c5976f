import numpy as np
import pytest

from repro.mpi.datatypes import (
    DOUBLE,
    INT32,
    VectorDatatype,
    flat_view,
    pack,
    unpack,
)
from repro.util.errors import DatatypeError


class TestBaseDatatypes:
    def test_double(self):
        assert DOUBLE.base == np.float64
        assert DOUBLE.size_elements == 1
        assert DOUBLE.extent_elements == 1

    def test_precommitted(self):
        DOUBLE.element_offsets()  # no raise


class TestVector:
    def test_offsets(self):
        dt = VectorDatatype(count=3, blocklength=2, stride=4).commit()
        assert list(dt.element_offsets()) == [0, 1, 4, 5, 8, 9]
        assert dt.size_elements == 6
        assert dt.extent_elements == 10

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(DatatypeError):
            VectorDatatype(count=2, blocklength=4, stride=2)

    def test_single_block_any_stride(self):
        VectorDatatype(count=1, blocklength=4, stride=1).commit()  # ok

    def test_uncommitted_use_raises(self):
        dt = VectorDatatype(2, 1, 2)
        with pytest.raises(DatatypeError):
            dt.element_offsets()

    def test_free_then_use_raises(self):
        dt = VectorDatatype(2, 1, 2).commit()
        dt.free()
        with pytest.raises(DatatypeError):
            pack(np.zeros(10), dt)


class TestPackUnpack:
    def test_roundtrip_identity(self):
        arr = np.arange(60, dtype=np.float64).reshape(3, 4, 5, order="F")
        dt = VectorDatatype(4 * 5, 1, 3).commit()  # i=const face
        wire = pack(arr, dt, offset_elements=1)
        out = np.zeros_like(arr)
        unpack(out, dt, wire, offset_elements=1)
        assert np.array_equal(out[1], arr[1])
        assert out[0].sum() == 0 and out[2].sum() == 0

    def test_face_extraction_x(self):
        """Axis-0 face of an F-ordered array via Type_vector."""
        arr = np.arange(60, dtype=np.float64).reshape(3, 4, 5, order="F")
        dt = VectorDatatype(20, 1, 3).commit()
        wire = pack(arr, dt, offset_elements=2)
        assert np.array_equal(wire, arr[2].ravel(order="F"))

    def test_face_extraction_y(self):
        arr = np.arange(60, dtype=np.float64).reshape(3, 4, 5, order="F")
        dt = VectorDatatype(count=5, blocklength=3, stride=12).commit()
        wire = pack(arr, dt, offset_elements=1 * 3)
        assert np.array_equal(wire, arr[:, 1, :].ravel(order="F"))

    def test_face_extraction_z(self):
        arr = np.arange(60, dtype=np.float64).reshape(3, 4, 5, order="F")
        dt = VectorDatatype(count=1, blocklength=12, stride=12).commit()
        wire = pack(arr, dt, offset_elements=2 * 12)
        assert np.array_equal(wire, arr[:, :, 2].ravel(order="F"))

    def test_c_order_arrays_supported(self):
        arr = np.arange(12, dtype=np.float64).reshape(3, 4)
        dt = VectorDatatype(3, 1, 4).commit()  # column 0 in C order
        assert np.array_equal(pack(arr, dt), arr[:, 0])

    def test_dtype_mismatch(self):
        arr = np.zeros(10, dtype=np.float32)
        with pytest.raises(DatatypeError):
            pack(arr, DOUBLE)

    def test_out_of_bounds(self):
        arr = np.zeros(10)
        dt = VectorDatatype(4, 1, 3).commit()  # max offset 9
        pack(arr, dt)  # fits exactly
        with pytest.raises(DatatypeError):
            pack(arr, dt, offset_elements=1)

    def test_unpack_size_mismatch(self):
        arr = np.zeros(10)
        dt = VectorDatatype(3, 1, 3).commit()
        with pytest.raises(DatatypeError):
            unpack(arr, dt, np.zeros(4))

    def test_noncontiguous_view_rejected(self):
        arr = np.zeros((8, 8))[::2]
        with pytest.raises(DatatypeError):
            flat_view(arr)

    def test_int32_datatype(self):
        arr = np.arange(10, dtype=np.int32)
        dt = VectorDatatype(2, 2, 5, base=INT32).commit()
        assert np.array_equal(pack(arr, dt), [0, 1, 5, 6])
