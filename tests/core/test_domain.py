import numpy as np
import pytest

from repro.core.domain import (
    FaceSpec,
    LocalDomain,
    base_datatype_for,
    block_range,
)
from repro.core.exchange import exchange_ghosts, exchange_plan
from repro.mpi.datatypes import DOUBLE, FLOAT, pack
from repro.util.errors import ConfigError


class TestBlockRange:
    def test_even_split(self):
        assert block_range(8, 2, 0) == (0, 4)
        assert block_range(8, 2, 1) == (4, 4)

    def test_remainder_goes_to_first_blocks(self):
        assert block_range(10, 3, 0) == (0, 4)
        assert block_range(10, 3, 1) == (4, 3)
        assert block_range(10, 3, 2) == (7, 3)

    def test_covers_domain_exactly(self):
        for n, blocks in ((17, 4), (8, 8), (1024, 16)):
            cells = []
            for b in range(blocks):
                start, count = block_range(n, blocks, b)
                cells.extend(range(start, start + count))
            assert cells == list(range(n))

    def test_empty_block_rejected(self):
        with pytest.raises(ConfigError):
            block_range(2, 4, 0)

    def test_bad_index(self):
        with pytest.raises(ConfigError):
            block_range(8, 2, 2)



class TestBaseDatatypeFor:
    @pytest.mark.parametrize(
        "dtype,base", [(np.float64, DOUBLE), ("float32", FLOAT)]
    )
    def test_field_precisions(self, dtype, base):
        assert base_datatype_for(dtype) is base

    @pytest.mark.parametrize("dtype", [np.float16, np.int32])
    def test_other_dtypes_rejected(self, dtype):
        with pytest.raises(ConfigError, match="no MPI base datatype"):
            base_datatype_for(dtype)


class TestLocalDomain:
    def test_for_coords(self):
        d = LocalDomain.for_coords((8, 8, 8), (2, 2, 2), (1, 0, 1))
        assert d.start == (4, 0, 4)
        assert d.count == (4, 4, 4)
        assert d.ghosted_shape == (6, 6, 6)

    def test_allocate_and_interior(self):
        d = LocalDomain.for_coords((8, 8, 8), (2, 2, 2), (0, 0, 0))
        field = d.allocate_field()
        assert field.flags.f_contiguous
        interior = d.interior(field)
        assert interior.shape == (4, 4, 4)
        interior[...] = 1
        assert field.sum() == 64  # writes hit the parent array

    def test_interior_shape_check(self):
        d = LocalDomain.for_coords((8, 8, 8), (2, 2, 2), (0, 0, 0))
        with pytest.raises(ConfigError):
            d.interior(np.zeros((4, 4, 4), order="F"))

    def test_global_slices(self):
        d = LocalDomain.for_coords((8, 8, 8), (2, 2, 2), (1, 1, 0))
        assert d.global_slices() == (slice(4, 8), slice(4, 8), slice(0, 4))

    def test_uneven_decomposition(self):
        counts = [
            LocalDomain.for_coords((10, 8, 8), (3, 1, 1), (c, 0, 0)).count[0]
            for c in range(3)
        ]
        assert counts == [4, 3, 3]


class TestFaceSpecs:
    @pytest.fixture
    def domain(self):
        return LocalDomain.for_coords((8, 8, 8), (2, 2, 2), (0, 0, 0))

    def test_all_six_faces(self, domain):
        specs = domain.face_specs()
        assert set(specs) == {(a, d) for a in range(3) for d in (-1, 1)}

    def test_face_sizes(self, domain):
        m = domain.ghosted_shape
        specs = domain.face_specs()
        assert specs[(0, -1)].datatype.size_elements == m[1] * m[2]
        assert specs[(1, -1)].datatype.size_elements == m[0] * m[2]
        assert specs[(2, -1)].datatype.size_elements == m[0] * m[1]

    def test_send_layers_extract_correct_planes(self, domain):
        field = domain.allocate_field()
        m = field.shape
        data = np.arange(np.prod(m), dtype=np.float64).reshape(m, order="F")
        field[...] = data
        specs = domain.face_specs()

        low_x = pack(field, specs[(0, -1)].datatype,
                     offset_elements=specs[(0, -1)].send_offset)
        assert np.array_equal(low_x, data[1].ravel(order="F"))

        high_y = pack(field, specs[(1, +1)].datatype,
                      offset_elements=specs[(1, +1)].send_offset)
        assert np.array_equal(high_y, data[:, -2, :].ravel(order="F"))

        high_z = pack(field, specs[(2, +1)].datatype,
                      offset_elements=specs[(2, +1)].send_offset)
        assert np.array_equal(high_z, data[:, :, -2].ravel(order="F"))

    def test_recv_offsets_are_ghost_layers(self, domain):
        specs = domain.face_specs()
        m = domain.ghosted_shape
        assert specs[(0, -1)].recv_offset == 0
        assert specs[(0, +1)].recv_offset == m[0] - 1
        assert specs[(2, +1)].recv_offset == (m[2] - 1) * m[0] * m[1]


def serial_wrap_ghosts(field):
    """The serial periodic exchange: the (1, 1, 1) plan, no communicator."""
    interior = tuple(m - 2 for m in field.shape)
    domain = LocalDomain.for_coords(interior, (1, 1, 1), (0, 0, 0))
    exchange_ghosts(None, field, exchange_plan(domain, (True,) * 3))


class TestSerialWrapGhosts:
    def test_periodic_wrap(self):
        field = np.zeros((5, 5, 5), order="F")
        field[1, 2, 2] = 7.0  # low interior layer, axis 0
        field[3, 1, 1] = 9.0  # high interior layer, axis 0
        serial_wrap_ghosts(field)
        assert field[4, 2, 2] == 7.0  # low interior -> high ghost
        assert field[0, 1, 1] == 9.0  # high interior -> low ghost

    def test_wrap_matches_roll_semantics(self):
        rng = np.random.default_rng(0)
        field = np.asfortranarray(rng.random((6, 6, 6)))
        interior = field[1:-1, 1:-1, 1:-1].copy()
        serial_wrap_ghosts(field)
        # after the wrap, ghost(0) == interior(-1) for each axis 0 slice
        assert np.array_equal(field[0, 1:-1, 1:-1], interior[-1])
        assert np.array_equal(field[-1, 1:-1, 1:-1], interior[0])
        assert np.array_equal(field[1:-1, 0, 1:-1], interior[:, -1])
        assert np.array_equal(field[1:-1, 1:-1, -1], interior[:, :, 0])
