import numpy as np
import pytest

from repro.core.domain import LocalDomain
from repro.core.exchange import exchange_ghosts, exchange_plan, face_windows
from repro.mpi.cart import cart_coords
from repro.mpi.datatypes import pack, unpack
from repro.mpi.executor import run_spmd
from repro.util.errors import DatatypeError, TruncationError
from tests.oracles import exchange as oracle


def _global_field(shape, seed=0):
    rng = np.random.default_rng(seed)
    return np.asfortranarray(rng.random(shape))


def _parallel_exchange(global_shape, dims, nranks, seed=0):
    """Run one ghost exchange; each rank returns its full ghosted field."""
    reference = _global_field(global_shape, seed)

    def worker(comm):
        cart = comm.create_cart(dims, periods=(True,) * 3)
        domain = LocalDomain.for_coords(global_shape, dims, cart.coords())
        field = domain.allocate_field()
        domain.interior(field)[...] = reference[domain.global_slices()]
        exchange_ghosts(cart, field, exchange_plan(domain, cart.periods))
        return domain, field

    return reference, run_spmd(worker, nranks, timeout=60)


@pytest.mark.parametrize(
    "dims,nranks",
    [((2, 1, 1), 2), ((1, 2, 1), 2), ((1, 1, 2), 2), ((2, 2, 2), 8), ((1, 2, 4), 8)],
)
class TestExchangeCorrectness:
    def test_ghosts_match_periodic_neighbors(self, dims, nranks):
        shape = (8, 8, 8)
        reference, results = _parallel_exchange(shape, dims, nranks)
        padded = np.pad(reference, 1, mode="wrap")
        for domain, field in results:
            s = domain.start
            c = domain.count
            expected = np.asfortranarray(
                padded[s[0]: s[0] + c[0] + 2,
                       s[1]: s[1] + c[1] + 2,
                       s[2]: s[2] + c[2] + 2]
            )
            # the full-extent face exchange fixes edges and corners too
            assert np.array_equal(field, expected), (domain.coords,)


class TestExchangeSpecialCases:
    def test_single_rank_parallel_matches_serial_wrap(self):
        shape = (6, 6, 6)
        reference = _global_field(shape, 3)

        def worker(comm):
            cart = comm.create_cart((1, 1, 1), periods=(True,) * 3)
            domain = LocalDomain.for_coords(shape, (1, 1, 1), cart.coords())
            field = domain.allocate_field()
            domain.interior(field)[...] = reference
            exchange_ghosts(cart, field, exchange_plan(domain, cart.periods))
            return field

        parallel_field = run_spmd(worker, 1, timeout=30)[0]

        serial_field = np.zeros((8, 8, 8), order="F")
        serial_field[1:-1, 1:-1, 1:-1] = reference
        oracle.serial_wrap_ghosts(serial_field)
        assert np.array_equal(parallel_field, serial_field)

    def test_two_rank_axis_both_neighbors_same_peer(self):
        """dims=2 along one axis: both shifts point at the same rank."""
        shape = (8, 8, 8)
        reference, results = _parallel_exchange(shape, (2, 1, 1), 2, seed=5)
        domain, field = results[0]
        # low ghost of rank 0 must be rank 1's high interior layer
        assert np.array_equal(
            field[0, 1:-1, 1:-1], reference[7, :, :]
        )
        assert np.array_equal(
            field[-1, 1:-1, 1:-1], reference[4, :, :]
        )

    def test_uneven_blocks(self):
        shape = (10, 8, 8)
        reference, results = _parallel_exchange(shape, (2, 1, 1), 2, seed=9)
        padded = np.pad(reference, 1, mode="wrap")
        for domain, field in results:
            s, c = domain.start, domain.count
            expected = np.asfortranarray(
                padded[s[0]: s[0] + c[0] + 2,
                       s[1]: s[1] + c[1] + 2,
                       s[2]: s[2] + c[2] + 2]
            )
            assert np.array_equal(field, expected)


class TestNonblockingExchange:
    def test_faces_match_blocking_variant(self):
        """Face ghosts agree with the sequential plan; the Gray-Scott
        stencil never reads the edge/corner ghosts where they differ."""
        shape = (8, 8, 8)
        dims, nranks = (2, 2, 2), 8
        reference = _global_field(shape, seed=11)

        def worker(comm):
            cart = comm.create_cart(dims, periods=(True,) * 3)
            domain = LocalDomain.for_coords(shape, dims, cart.coords())
            blocking = domain.allocate_field()
            overlapped = domain.allocate_field()
            for field in (blocking, overlapped):
                domain.interior(field)[...] = reference[domain.global_slices()]
            exchange_ghosts(cart, blocking, exchange_plan(domain, cart.periods))
            exchange_ghosts(
                cart, overlapped, exchange_plan(domain, cart.periods, "overlapped")
            )
            # compare face ghosts only (strip the 12 edges + 8 corners)
            same = True
            same &= np.array_equal(blocking[0, 1:-1, 1:-1], overlapped[0, 1:-1, 1:-1])
            same &= np.array_equal(blocking[-1, 1:-1, 1:-1], overlapped[-1, 1:-1, 1:-1])
            same &= np.array_equal(blocking[1:-1, 0, 1:-1], overlapped[1:-1, 0, 1:-1])
            same &= np.array_equal(blocking[1:-1, -1, 1:-1], overlapped[1:-1, -1, 1:-1])
            same &= np.array_equal(blocking[1:-1, 1:-1, 0], overlapped[1:-1, 1:-1, 0])
            same &= np.array_equal(blocking[1:-1, 1:-1, -1], overlapped[1:-1, 1:-1, -1])
            return same

        assert all(run_spmd(worker, nranks, timeout=60))

    def test_simulation_correct_with_nonblocking_faces(self):
        """A solver stepping with the overlapped exchange matches the
        serial solution bitwise (the kernel only reads face ghosts)."""
        from repro.core.settings import GrayScottSettings
        from repro.core.simulation import Simulation

        settings = GrayScottSettings(L=12, steps=0, noise=0.05)
        serial = Simulation(settings)
        serial.run(5)
        expected = serial.gather_global("u")

        def worker(comm):
            sim = Simulation(settings.with_overrides(exchange="overlapped"), comm)
            assert any(op.kind == "wait" for op in sim.exchange_plan)
            sim.run(5)
            return sim.gather_global("u")

        got = run_spmd(worker, 8, timeout=120)[0]
        assert np.array_equal(expected, got)


# -- the plan against the face-by-face exchange it replaced --------------

MATRIX_DIMS = [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1), (2, 2, 2), (3, 1, 1)]
#: uneven on every axis, and not divisible by 2 or 3 everywhere
UNEVEN_SHAPE = (7, 6, 5)
MESSAGE_KINDS = ("isend", "irecv", "recv")


def _logging(cart, log):
    """Record every point-to-point call ``cart`` makes, in call order.

    Entries are ``[op, peer, tag, elements]``; an ``irecv`` gets its
    element count when its request completes. Calls made inside a
    logged call (``send`` -> ``isend``, ``recv`` -> ``irecv``) are not
    logged again.
    """
    inner = {"send": cart.send, "isend": cart.isend,
             "recv": cart.recv, "irecv": cart.irecv}
    nested = []

    def logged(op):
        def call(*args, **kwargs):
            if nested:
                return inner[op](*args, **kwargs)
            entry = [op, args[1] if op.endswith("send") else args[0],
                     args[2] if op.endswith("send") else args[1], None]
            log.append(entry)
            nested.append(op)
            try:
                result = inner[op](*args, **kwargs)
            finally:
                nested.pop()
            if op.endswith("send"):
                entry[3] = args[0].size
            elif op == "recv":
                entry[3] = result[0].size
            else:
                wait = result.wait

                def counted_wait(timeout=None):
                    msg = wait(timeout)
                    entry[3] = msg.payload.size
                    return msg

                result.wait = counted_wait
            return result
        return call

    for op in inner:
        setattr(cart, op, logged(op))


def _stale_ghosts(domain, reference, seed):
    """A local field: ``reference``'s block, random bytes in the ghosts."""
    field = _global_field(domain.ghosted_shape, seed)
    domain.interior(field)[...] = reference[domain.global_slices()]
    return field


def _matrix_case(dims, periodic, mode, seed=0):
    """Per rank: (plan, plan field, oracle field, message log)."""
    nranks = int(np.prod(dims))
    reference = _global_field(UNEVEN_SHAPE, seed)
    oracle_exchange = {
        "sequential": oracle.exchange_ghosts,
        "overlapped": oracle.exchange_ghosts_nonblocking,
    }[mode]

    def worker(comm):
        periods = (periodic,) * 3
        # separate communicators keep the two exchanges' messages apart
        oracle_cart = comm.create_cart(dims, periods=periods)
        cart = comm.create_cart(dims, periods=periods)
        domain = LocalDomain.for_coords(UNEVEN_SHAPE, dims, cart.coords())
        expected = _stale_ghosts(domain, reference, seed + 1 + cart.rank)
        got = _stale_ghosts(domain, reference, seed + 1 + cart.rank)
        oracle_exchange(oracle_cart, expected, domain.face_specs())
        if not periodic:
            oracle.mirror_ghosts(
                expected, sides=oracle.wall_sides(domain.coords, dims)
            )
        log = []
        _logging(cart, log)
        plan = exchange_plan(domain, periods, mode)
        exchange_ghosts(cart, got, plan)
        return plan, got, expected, log

    return run_spmd(worker, nranks, timeout=60)


@pytest.mark.parametrize("mode", ["sequential", "overlapped"])
@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "walls"])
@pytest.mark.parametrize("dims", MATRIX_DIMS, ids=lambda d: "x".join(map(str, d)))
class TestPlanMatchesOracle:
    def test_ghosted_bytes_and_message_log(self, dims, periodic, mode):
        for rank, (plan, got, expected, log) in enumerate(
            _matrix_case(dims, periodic, mode)
        ):
            # every byte, ghost edges and corners included
            assert got.tobytes(order="F") == expected.tobytes(order="F"), rank
            assert log == [
                [op.kind, op.peer, op.tag, op.count]
                for op in plan if op.kind in MESSAGE_KINDS
            ], rank


@pytest.mark.parametrize("mode", ["sequential", "overlapped"])
@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "walls"])
def test_serial_plan_needs_no_communicator(periodic, mode):
    """A serial run is the (1, 1, 1) plan: local fills only, no cart."""
    dims = (1, 1, 1)
    domain = LocalDomain.for_coords(UNEVEN_SHAPE, dims, (0, 0, 0))
    plan = exchange_plan(domain, (periodic,) * 3, mode)
    assert {op.kind for op in plan} == {"copy" if periodic else "mirror"}
    field = _stale_ghosts(domain, _global_field(UNEVEN_SHAPE), seed=1)
    exchange_ghosts(None, field, plan)
    [(_, _, expected, _)] = _matrix_case(dims, periodic, mode)
    assert np.array_equal(field, expected)
    if mode == "sequential":
        fill = oracle.serial_wrap_ghosts if periodic else oracle.mirror_ghosts
        serial = _stale_ghosts(domain, _global_field(UNEVEN_SHAPE), seed=1)
        fill(serial)
        assert np.array_equal(field, serial)


@pytest.mark.parametrize("dims", MATRIX_DIMS, ids=lambda d: "x".join(map(str, d)))
class TestWindowsMatchDatatypes:
    """The plan's basic-slice windows carry the Listing 3 wire layout."""

    def test_send_and_ghost_windows(self, dims):
        for rank in range(int(np.prod(dims))):
            domain = LocalDomain.for_coords(
                UNEVEN_SHAPE, dims, cart_coords(rank, dims)
            )
            shape = domain.ghosted_shape
            field = _global_field(shape, seed=rank)
            specs = domain.face_specs()
            plan = exchange_plan(domain, (True,) * 3)
            for (axis, side), spec in specs.items():
                send, ghost = face_windows(shape, axis, side)
                wire = pack(field, spec.datatype, offset_elements=spec.send_offset)
                assert np.array_equal(field[send].ravel("F"), wire)
                via_type = field.copy(order="F")
                unpack(via_type, spec.datatype, wire[::-1].copy(),
                       offset_elements=spec.recv_offset)
                via_window = field.copy(order="F")
                via_window[ghost] = wire[::-1].reshape(field[ghost].shape, order="F")
                assert np.array_equal(via_window, via_type)
            for op in plan:
                if op.kind == "isend":
                    assert op.layer == face_windows(shape, op.axis, op.side)[0]
                if op.kind == "recv":
                    assert op.ghost == face_windows(shape, op.axis, op.side)[1]
                if op.kind in MESSAGE_KINDS:
                    assert op.count == specs[(op.axis, op.side)].datatype.size_elements


class TestBadFaceMessage:
    """A malformed face fails with an MPI error naming the face."""

    def _receive_from_liar(self, face):
        dims = (2, 1, 1)

        def worker(comm):
            cart = comm.create_cart(dims, periods=(True,) * 3)
            domain = LocalDomain.for_coords((8, 8, 8), dims, cart.coords())
            plan = exchange_plan(domain, cart.periods)
            if cart.rank == 1:
                for op in plan:
                    if op.kind == "isend":
                        cart.isend(face, op.peer, op.tag)
                return None
            exchange_ghosts(cart, domain.allocate_field(), plan)

        run_spmd(worker, 2, timeout=30)

    def test_short_face_raises_truncation(self):
        with pytest.raises(TruncationError, match="axis 0 side -1.*has 5 elements"):
            self._receive_from_liar(np.zeros(5))

    def test_wrong_dtype_raises_datatype_error(self):
        # the right element count (10 x 10 face), the wrong element type
        with pytest.raises(DatatypeError, match="axis 0 side -1.*float32"):
            self._receive_from_liar(np.zeros(100, dtype=np.float32))


class TestSendIsBuffered:
    def test_field_change_after_isend_leaves_received_face(self):
        """A face is sent as its window of the field: the buffered send's
        copy, not the window, is what the peer receives."""
        shape, dims = (8, 8, 8), (2, 1, 1)
        reference, results = _parallel_exchange(shape, dims, 2, seed=7)

        def worker(comm):
            cart = comm.create_cart(dims, periods=(True,) * 3)
            domain = LocalDomain.for_coords(shape, dims, cart.coords())
            field = domain.allocate_field()
            domain.interior(field)[...] = reference[domain.global_slices()]
            plan = exchange_plan(domain, cart.periods)
            if cart.rank == 1:
                exchange_ghosts(cart, field, [op for op in plan if op.kind == "isend"])
                field[...] = -1.0
                cart.barrier()
                return None
            cart.barrier()  # the sender has overwritten its field
            exchange_ghosts(cart, field, plan)
            return field

        assert np.array_equal(run_spmd(worker, 2, timeout=30)[0], results[0][1])
