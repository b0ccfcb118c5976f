import pytest

from repro.mpi.cart import cart_coords, cart_rank, cart_shift, dims_create
from repro.mpi.comm import PROC_NULL
from repro.mpi.executor import run_spmd
from repro.util.errors import MPIError


class TestDimsCreate:
    @pytest.mark.parametrize(
        "n,ndims,expected",
        [
            (4096, 3, (16, 16, 16)),
            (512, 3, (8, 8, 8)),
            (8, 3, (2, 2, 2)),
            (1, 3, (1, 1, 1)),
            (12, 2, (4, 3)),
            (7, 1, (7,)),
            (6, 3, (3, 2, 1)),
            (64, 3, (4, 4, 4)),
        ],
    )
    def test_balanced(self, n, ndims, expected):
        assert dims_create(n, ndims) == expected

    def test_product_invariant(self):
        import math

        for n in (1, 2, 24, 30, 100, 4096):
            dims = dims_create(n, 3)
            assert math.prod(dims) == n

    def test_fixed_dims(self):
        assert dims_create(12, 3, dims=[0, 2, 0]) == (3, 2, 2)
        assert dims_create(12, 2, dims=[12, 0]) == (12, 1)

    def test_fixed_dims_indivisible(self):
        with pytest.raises(MPIError):
            dims_create(10, 2, dims=[3, 0])

    def test_all_fixed_must_multiply(self):
        assert dims_create(6, 2, dims=[3, 2]) == (3, 2)
        with pytest.raises(MPIError):
            dims_create(6, 2, dims=[3, 3])

    def test_invalid_inputs(self):
        with pytest.raises(MPIError):
            dims_create(0, 3)
        with pytest.raises(MPIError):
            dims_create(4, 0)



class TestCartRank:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (1, 1, 4), (3, 2, 1), (2, 3, 5)])
    def test_inverts_cart_coords(self, dims):
        import math

        periods = (False,) * len(dims)
        for rank in range(math.prod(dims)):
            assert cart_rank(cart_coords(rank, dims), dims, periods) == rank

    def test_periodic_axes_wrap_both_ways(self):
        dims, periods = (2, 3), (True, True)
        assert cart_rank((-1, 0), dims, periods) == cart_rank((1, 0), dims, periods)
        assert cart_rank((0, 3), dims, periods) == cart_rank((0, 0), dims, periods)
        assert cart_rank((2, -4), dims, periods) == cart_rank((0, 2), dims, periods)

    def test_off_a_non_periodic_axis_is_proc_null(self):
        dims, periods = (2, 3), (True, False)
        assert cart_rank((0, -1), dims, periods) == PROC_NULL
        assert cart_rank((0, 3), dims, periods) == PROC_NULL
        # the periodic axis still wraps
        assert cart_rank((2, 1), dims, periods) == cart_rank((0, 1), dims, periods)


class TestCartShift:
    def test_displacement_beyond_one(self):
        # a periodic ring of 5: rank 1 shifted by 2 reads from 4 and sends to 3
        assert cart_shift(1, (5,), (True,), axis=0, disp=2) == (4, 3)

    def test_negative_displacement_swaps_source_and_dest(self):
        dims, periods = (2, 4), (False, True)
        for rank in range(8):
            source, dest = cart_shift(rank, dims, periods, axis=1, disp=1)
            assert cart_shift(rank, dims, periods, axis=1, disp=-1) == (dest, source)

    def test_non_periodic_edges_are_proc_null(self):
        dims, periods = (3, 1, 1), (False, True, True)
        assert cart_shift(0, dims, periods, axis=0) == (PROC_NULL, 1)
        assert cart_shift(2, dims, periods, axis=0) == (1, PROC_NULL)
        assert cart_shift(1, dims, periods, axis=0, disp=2) == (PROC_NULL, PROC_NULL)

    def test_single_rank_periodic_axis_is_its_own_neighbour(self):
        assert cart_shift(0, (1, 1, 1), (True,) * 3, axis=2) == (0, 0)

def _face_neighbor_count(cart):
    """Face neighbours that exist, from ``shift`` along every direction."""
    return sum(
        rank != PROC_NULL
        for direction in range(cart.ndims)
        for rank in cart.shift(direction, 1)
    )


class TestCartComm:
    def _with_cart(self, size, dims, periods, fn):
        def body(comm):
            cart = comm.create_cart(dims, periods)
            return fn(cart)

        return run_spmd(body, size, timeout=15)

    def test_coords_roundtrip(self):
        def check(cart):
            coords = cart.coords()
            assert cart.rank_of(coords) == cart.rank
            return coords

        coords = self._with_cart(8, (2, 2, 2), None, check)
        assert coords[0] == (0, 0, 0)
        assert coords[7] == (1, 1, 1)
        assert coords[1] == (0, 0, 1)  # last dim varies fastest

    def test_shift_interior(self):
        def check(cart):
            return cart.shift(2, 1)

        results = self._with_cart(4, (1, 1, 4), (False, False, False), check)
        assert results[1] == (0, 2)
        assert results[0] == (PROC_NULL, 1)
        assert results[3] == (2, PROC_NULL)

    def test_shift_periodic_wraps(self):
        def check(cart):
            return cart.shift(2, 1)

        results = self._with_cart(4, (1, 1, 4), (True, True, True), check)
        assert results[0] == (3, 1)
        assert results[3] == (2, 0)

    def test_neighbors_periodic_always_six(self):
        def check(cart):
            return _face_neighbor_count(cart)

        assert self._with_cart(8, (2, 2, 2), (True,) * 3, check) == [6] * 8

    def test_neighbors_nonperiodic_corner(self):
        def check(cart):
            if cart.rank == 0:
                return _face_neighbor_count(cart)
            return None

        assert self._with_cart(8, (2, 2, 2), (False,) * 3, check)[0] == 3

    def test_dims_mismatch_rejected(self):
        with pytest.raises(MPIError):
            self._with_cart(4, (3, 1, 1), None, lambda c: None)

    def test_bad_shift_direction(self):
        def check(cart):
            cart.shift(5, 1)

        with pytest.raises(MPIError):
            self._with_cart(4, (1, 1, 4), None, check)

    def test_cart_messages_isolated_from_parent(self):
        def body(comm):
            cart = comm.create_cart((2,) if comm.size == 2 else (comm.size,))
            if comm.rank == 0:
                comm.send("world", 1, tag=0)
                cart.send("cart", 1, tag=0)
                return None
            from_cart, _ = cart.recv(0, tag=0)
            from_world, _ = comm.recv(0, tag=0)
            return from_cart, from_world

        assert run_spmd(body, 2, timeout=10)[1] == ("cart", "world")

    def test_cart_collectives(self):
        def body(comm):
            cart = comm.create_cart((2, 2, 2), (True,) * 3)
            return cart.allreduce(cart.rank, "sum")

        assert run_spmd(body, 8, timeout=15) == [28] * 8

    def test_coords_of_other_rank(self):
        def body(comm):
            cart = comm.create_cart((2, 2))
            return cart.coords(3)

        assert run_spmd(body, 4, timeout=10)[0] == (1, 1)

    def test_bad_coords_length(self):
        def body(comm):
            cart = comm.create_cart((4,))
            cart.rank_of((1, 2))

        with pytest.raises(MPIError):
            run_spmd(body, 4, timeout=5)
