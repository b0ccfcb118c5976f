"""Property-based tests of the MPI datatype machinery."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.datatypes import VectorDatatype, pack, unpack

vector_params = st.tuples(
    st.integers(1, 8),   # count
    st.integers(1, 6),   # blocklength
    st.integers(0, 8),   # stride slack beyond blocklength
)


@st.composite
def vector_and_buffer(draw):
    count, blocklength, slack = draw(vector_params)
    stride = blocklength + slack if count > 1 else max(1, blocklength)
    dt = VectorDatatype(count, blocklength, stride).commit()
    offset = draw(st.integers(0, 5))
    size = offset + dt.extent_elements + draw(st.integers(0, 5))
    buf = draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=size, max_size=size,
        )
    )
    return dt, offset, np.array(buf, dtype=np.float64)


class TestPackUnpackProperties:
    @given(vector_and_buffer())
    @settings(max_examples=80, deadline=None)
    def test_unpack_pack_is_identity_on_selection(self, case):
        """unpack(pack(x)) restores exactly the selected elements."""
        dt, offset, buf = case
        wire = pack(buf, dt, offset_elements=offset)
        out = np.zeros_like(buf)
        unpack(out, dt, wire, offset_elements=offset)
        offsets = dt.element_offsets() + offset
        assert np.array_equal(out[offsets], buf[offsets])
        mask = np.ones(buf.size, dtype=bool)
        mask[offsets] = False
        assert (out[mask] == 0).all()  # untouched elsewhere

    @given(vector_and_buffer())
    @settings(max_examples=80, deadline=None)
    def test_pack_size_invariant(self, case):
        dt, offset, buf = case
        wire = pack(buf, dt, offset_elements=offset)
        assert wire.size == dt.size_elements == dt.count * dt.blocklength

    @given(vector_and_buffer())
    @settings(max_examples=50, deadline=None)
    def test_offsets_strictly_increasing(self, case):
        dt, _, _ = case
        offsets = dt.element_offsets()
        assert (np.diff(offsets) > 0).all()
