"""Micro-benchmarks of the MPI substrate: exchange, collectives, pack."""

import numpy as np
import pytest

from repro.core.domain import LocalDomain
from repro.core.exchange import exchange_ghosts, exchange_plan
from repro.mpi.datatypes import VectorDatatype, pack, unpack
from repro.mpi.executor import run_spmd


@pytest.mark.parametrize("n", [16, 32])
def test_pack_unpack_face(benchmark, n):
    """Strided Type_vector face pack/unpack (the Listing 3 hot path)."""
    arr = np.zeros((n, n, n), order="F")
    face = VectorDatatype(n * n, 1, n).commit()

    def run():
        wire = pack(arr, face, offset_elements=1)
        unpack(arr, face, wire, offset_elements=0)

    benchmark(run)


@pytest.mark.parametrize("nranks", [2, 4, 8])
def test_ghost_exchange(benchmark, nranks):
    """Full 6-face double-field exchange across thread ranks."""
    global_shape = (16, 16, 16)
    from repro.mpi.cart import dims_create

    dims = dims_create(nranks, 3)

    def run():
        def worker(comm):
            cart = comm.create_cart(dims, periods=(True,) * 3)
            domain = LocalDomain.for_coords(global_shape, dims, cart.coords())
            field = domain.allocate_field()
            plan = exchange_plan(domain, cart.periods)
            for _ in range(3):
                exchange_ghosts(cart, field, plan)
            return True

        return run_spmd(worker, nranks, timeout=60)

    assert all(benchmark.pedantic(run, rounds=3, iterations=1))


@pytest.mark.parametrize("nranks", [4, 8, 16])
def test_allreduce_latency(benchmark, nranks):
    def run():
        return run_spmd(
            lambda comm: comm.allreduce(comm.rank, "sum"), nranks, timeout=60
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result == [nranks * (nranks - 1) // 2] * nranks


def test_allreduce_tree_vs_recursive_doubling(benchmark):
    """Ablation: baseline reduce+bcast vs recursive doubling (8 ranks)."""
    from repro.mpi.collectives import allreduce_rd

    def run():
        def worker(comm):
            a = comm.allreduce(comm.rank, "sum")
            b = allreduce_rd(comm, comm.rank, "sum")
            return a == b

        return run_spmd(worker, 8, timeout=60)

    assert all(benchmark.pedantic(run, rounds=3, iterations=1))


def test_comm_stats_of_real_exchange(benchmark):
    """mpiP-style accounting of the full solver's exchange traffic."""
    from conftest import print_block

    from repro.core.settings import GrayScottSettings
    from repro.core.simulation import Simulation

    settings = GrayScottSettings(L=16, steps=0, noise=0.0)

    def run():
        job_out = {}

        def worker(comm):
            sim = Simulation(settings, comm)
            sim.run(3)
            return True

        run_spmd(worker, 8, timeout=60, collect_stats=True, job_out=job_out)
        return job_out["job"].stats

    stats = benchmark.pedantic(run, rounds=3, iterations=1)
    totals = stats.p2p_totals()
    # init exchange + 3 step exchanges, 2 fields, 6 faces, 8 ranks
    assert totals.messages == 4 * 2 * 6 * 8
    print_block("Communication statistics (real 8-rank, 3-step run)", stats.render())
