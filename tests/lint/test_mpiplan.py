"""Seeded-bug tests for the MPI plan checker."""

import pytest

from repro.lint import CommPlan, cart_shift, check_plan, halo_exchange_plan
from repro.mpi.cart import dims_create
from repro.mpi.comm import ANY_SOURCE, ANY_TAG, PROC_NULL, Job
from repro.util.errors import LintError


def _rules(report):
    return {d.rule for d in report.diagnostics}


class TestCartShift:
    @pytest.mark.parametrize("dims", [(2, 2, 1), (4, 1, 1), (2, 3, 2)])
    @pytest.mark.parametrize(
        "periods", [(True, True, True), (False, False, False)]
    )
    def test_matches_real_cartcomm(self, dims, periods):
        """The plan builder must agree with the production topology."""
        import math

        nranks = math.prod(dims)
        job = Job(nranks)
        for rank in range(nranks):
            cart = job.comm_world(rank).create_cart(dims, periods=periods)
            for axis in range(len(dims)):
                assert cart.shift(axis) == cart_shift(
                    rank, dims, periods, axis
                ), (dims, periods, rank, axis)

    def test_nonperiodic_edge_is_proc_null(self):
        source, dest = cart_shift(0, (2, 1, 1), (False,) * 3, 0)
        assert source == PROC_NULL
        assert dest == 1


class TestHaloExchangePlan:
    def test_default_plan_is_clean(self):
        dims = dims_create(4, 3)
        plan = halo_exchange_plan(dims)
        report = check_plan(plan)
        assert report.clean, [d.render() for d in report.diagnostics]
        # dims (2, 2, 1): 2 sends on each of the two split axes per rank;
        # the extent-1 axis is a self-neighbour, filled by 2 local copies
        assert report.facts["mpi.plan.messages"] == 4 * 2 * 2
        assert report.facts["mpi.plan.local_copies"] == 4 * 1 * 2

    def test_nonperiodic_plan_is_clean(self):
        plan = halo_exchange_plan((2, 2, 1), periods=(False, False, False))
        report = check_plan(plan)
        assert report.clean, [d.render() for d in report.diagnostics]
        # boundary faces become PROC_NULL and are dropped from the plan
        assert report.facts["mpi.plan.messages"] < 4 * 3 * 2

    def test_serial_plan_is_empty_and_clean(self):
        report = check_plan(halo_exchange_plan((1, 1, 1),
                                               periods=(False,) * 3))
        assert not report.diagnostics
        assert report.facts["mpi.plan.messages"] == 0
        assert report.facts["mpi.plan.local_copies"] == 0

    def test_plan_is_what_the_ranks_execute(self):
        """Each rank's program is its runtime plan's message ops."""
        from repro.core.domain import LocalDomain
        from repro.core.exchange import exchange_plan
        from repro.mpi.cart import cart_coords

        dims, periods = (3, 2, 1), (True, False, True)
        plan = halo_exchange_plan(dims, periods)
        for rank in range(6):
            domain = LocalDomain.for_coords((6, 6, 6), dims, cart_coords(rank, dims))
            runtime = [
                (op.peer, op.tag, op.kind == "recv")
                for op in exchange_plan(domain, periods)
                if op.kind in ("isend", "recv")
            ]
            assert [(op.peer, op.tag, op.blocking)
                    for op in plan.program(rank)] == runtime


class TestMatching:
    def test_unmatched_send(self):
        plan = CommPlan(2).send(0, 1, tag=7)
        assert "MPI-UNMATCHED-SEND" in _rules(check_plan(plan))

    def test_unmatched_recv(self):
        plan = CommPlan(2).recv(1, 0, tag=7, blocking=False)
        assert "MPI-UNMATCHED-RECV" in _rules(check_plan(plan))

    def test_tag_mismatch_refines_unmatched_pair(self):
        plan = CommPlan(2).send(0, 1, tag=7).recv(1, 0, tag=8)
        rules = _rules(check_plan(plan))
        assert "MPI-TAG-MISMATCH" in rules
        assert "MPI-UNMATCHED-SEND" not in rules

    def test_duplicate_match(self):
        plan = (
            CommPlan(2)
            .send(0, 1, tag=7)
            .send(0, 1, tag=7)
            .recv(1, 0, tag=7)
        )
        assert "MPI-DUP-MATCH" in _rules(check_plan(plan))

    def test_wildcard_recv_warns_but_matches(self):
        plan = CommPlan(2).send(0, 1, tag=7).recv(
            1, ANY_SOURCE, tag=ANY_TAG
        )
        report = check_plan(plan)
        assert _rules(report) == {"MPI-WILDCARD"}
        assert not report.errors

    def test_op_outside_communicator_rejected(self):
        with pytest.raises(LintError, match="outside"):
            CommPlan(2).send(0, 5, tag=0)


class TestDeadlock:
    def test_recv_before_send_head_to_head_deadlocks(self):
        # the ISSUE's canonical seed: a swapped send/recv pair — both
        # ranks block in recv before either sends
        plan = (
            CommPlan(2)
            .recv(0, 1, tag=0).send(0, 1, tag=0)
            .recv(1, 0, tag=0).send(1, 0, tag=0)
        )
        report = check_plan(plan)
        deadlocks = [d for d in report.diagnostics if d.rule == "MPI-DEADLOCK"]
        assert deadlocks
        assert "ranks [0, 1]" in deadlocks[0].location

    def test_rendezvous_send_cycle_deadlocks(self):
        # both ranks send unbuffered first: rendezvous with no posted recv
        plan = (
            CommPlan(2)
            .send(0, 1, tag=0, buffered=False).recv(0, 1, tag=0)
            .send(1, 0, tag=0, buffered=False).recv(1, 0, tag=0)
        )
        assert "MPI-DEADLOCK" in _rules(check_plan(plan))

    def test_buffered_send_cycle_completes(self):
        # the same shape with eager (buffered) sends is the repo's
        # sequential exchange pattern — no deadlock
        plan = (
            CommPlan(2)
            .send(0, 1, tag=0).recv(0, 1, tag=0)
            .send(1, 0, tag=0).recv(1, 0, tag=0)
        )
        assert "MPI-DEADLOCK" not in _rules(check_plan(plan))

    def test_rendezvous_resolved_by_posted_irecv(self):
        plan = (
            CommPlan(2)
            .recv(0, 1, tag=0, blocking=False)
            .send(0, 1, tag=0, buffered=False)
            .recv(1, 0, tag=0, blocking=False)
            .send(1, 0, tag=0, buffered=False)
        )
        assert "MPI-DEADLOCK" not in _rules(check_plan(plan))

    def test_ordered_pair_completes(self):
        plan = (
            CommPlan(2)
            .send(0, 1, tag=0).recv(0, 1, tag=1)
            .recv(1, 0, tag=0).send(1, 0, tag=1)
        )
        assert "MPI-DEADLOCK" not in _rules(check_plan(plan))


class TestCollectiveOrder:
    def test_matching_order_is_clean(self):
        plan = CommPlan(3)
        for rank in range(3):
            plan.collective(rank, "barrier")
            plan.collective(rank, "allreduce[sum]")
        report = check_plan(plan)
        assert "MPI-COLLECTIVE-ORDER" not in _rules(report)
        assert report.facts["mpi.plan.collectives"] == 6

    def test_swapped_order_is_flagged(self):
        plan = (
            CommPlan(2)
            .collective(0, "allreduce[sum]").collective(0, "barrier")
            .collective(1, "barrier").collective(1, "allreduce[sum]")
        )
        report = check_plan(plan)
        diags = [d for d in report.diagnostics if d.rule == "MPI-COLLECTIVE-ORDER"]
        assert len(diags) == 1
        assert "collective #0" in diags[0].message

    def test_missing_collective_is_flagged(self):
        plan = (
            CommPlan(2)
            .collective(0, "barrier").collective(0, "barrier")
            .collective(1, "barrier")
        )
        report = check_plan(plan)
        diags = [d for d in report.diagnostics if d.rule == "MPI-COLLECTIVE-ORDER"]
        assert len(diags) == 1
        assert "rank 1 issues 1 collective(s)" in diags[0].message

    def test_collectives_do_not_disturb_p2p_checks(self):
        plan = (
            CommPlan(2)
            .collective(0, "barrier").collective(1, "barrier")
            .send(0, 1, tag=0).recv(1, 0, tag=0)
        )
        report = check_plan(plan)
        assert not _rules(report)

    def test_empty_collective_name_rejected(self):
        with pytest.raises(LintError):
            CommPlan(2).collective(0, "")

    def test_seeded_bug_virtual_spmd_script(self):
        """The lint predicts the hang a skewed virtual-SPMD program hits."""
        from tests.oracles.vspmd import record_plan, run_virtual_spmd
        from repro.util.errors import SchedError

        def skewed(comm):
            if comm.rank == 0:
                total = yield from comm.allreduce(comm.rank, op="sum")
                yield from comm.barrier()
            else:
                yield from comm.barrier()
                total = yield from comm.allreduce(comm.rank, op="sum")
            return total

        report = check_plan(record_plan(skewed, 4))
        offenders = {
            d.location
            for d in report.diagnostics
            if d.rule == "MPI-COLLECTIVE-ORDER"
        }
        assert offenders == {"rank1", "rank2", "rank3"}

        def uniform(comm):
            yield from comm.barrier()
            total = yield from comm.allreduce(comm.rank, op="sum")
            return total

        assert "MPI-COLLECTIVE-ORDER" not in _rules(check_plan(record_plan(uniform, 4)))
        # the virtual run confirms the static verdict: skewed ordering
        # pairs the wrong collectives, so rank 0 reduces over only its
        # own contribution (silent corruption) while the uniform program
        # reduces over all four ranks
        skewed_run = run_virtual_spmd(skewed, 4)
        assert skewed_run.results[0] != sum(range(4))
        assert run_virtual_spmd(uniform, 4).results == [sum(range(4))] * 4

        def missing(comm):
            yield from comm.barrier()
            if comm.rank == 0:
                yield from comm.barrier()  # nobody else arrives

        report = check_plan(record_plan(missing, 4))
        assert "MPI-COLLECTIVE-ORDER" in _rules(report)
        # ... and at runtime the lone barrier is a virtual deadlock
        with pytest.raises(SchedError):
            run_virtual_spmd(missing, 4)
