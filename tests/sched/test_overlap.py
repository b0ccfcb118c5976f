"""Overlap semantics and golden regression for the Frontier-scale models.

With overlap disabled, Fig. 6 rank times equal the step-loop
accumulation of kernel + comm bitwise, and Fig. 8 write times bitwise
equal ``LustreModel.job_write_seconds``. With overlap enabled, virtual
time drops below the serial sum but never below the physical floor
max(compute, comm). The BP5 drain pipeline equals a per-node Python
loop of the same schedule bitwise.
"""

import numpy as np
import pytest

from repro.adios.fsmodel import IoWeakScalingModel
from repro.mpi.netmodel import WeakScalingModel
from tests.oracles import netmodel as oracle

SHAPE = (256, 256, 256)  # small local block: fast ladder points


class TestFig6Golden:
    """Engine output vs. the pre-engine closed-form schedule."""

    @pytest.fixture(scope="class")
    def serial_point(self):
        return WeakScalingModel(local_shape=SHAPE, steps=20).run_point(64)

    def test_serial_equals_step_loop_reference(self, serial_point):
        """Overlap off: rank time is exactly the serial accumulation
        kernel + comm per step, in step order (bitwise)."""
        model = WeakScalingModel(local_shape=SHAPE, steps=20)
        point = model.run_point(64)
        kernel, comm = self._ingredients(model, 64)
        reference = np.zeros(64)
        for rank in range(64):
            t = 0.0
            for _ in range(20):
                t += kernel[rank]
                t += comm[rank]
            reference[rank] = t
        np.testing.assert_array_equal(point.rank_seconds, reference)

    def test_run_point_is_deterministic(self, serial_point):
        again = WeakScalingModel(local_shape=SHAPE, steps=20).run_point(64)
        np.testing.assert_array_equal(
            again.rank_seconds, serial_point.rank_seconds
        )

    def test_overlap_strictly_faster_with_floor(self, serial_point):
        model = WeakScalingModel(local_shape=SHAPE, steps=20, overlap=True)
        point = model.run_point(64)
        kernel, comm = self._ingredients(model, 64)
        assert np.all(point.rank_seconds < serial_point.rank_seconds)
        # the physical floor, accumulated per step exactly as the engine
        # does: step end = max(start + kernel, start + comm)
        floor = np.zeros(64)
        for _ in range(20):
            floor = np.maximum(floor + kernel, floor + comm)
        np.testing.assert_array_equal(point.rank_seconds, floor)

    def test_overlap_flag_carried_on_point(self, serial_point):
        assert serial_point.overlap is False
        overlapped = WeakScalingModel(
            local_shape=SHAPE, steps=2, overlap=True
        ).run_point(8)
        assert overlapped.overlap is True

    @staticmethod
    def _ingredients(model, nranks):
        """Per-rank (kernel, comm) step costs, same draws as run_point."""
        from repro.cluster.placement import Placement
        from repro.gpu.proxy import grayscott_launch_cost
        from repro.mpi.cart import dims_create
        from repro.mpi.netmodel import HaloExchangeModel, noise_sigma

        placement = Placement(nranks, model.machine)
        cart_dims = dims_create(nranks, 3)
        halo = HaloExchangeModel(placement, cart_dims, model.local_shape)
        comm = np.array(
            [oracle.rank_step_breakdown(halo, r).total_seconds
             for r in range(nranks)]
        )
        gen = model.stream.generator("point", nranks)
        jitter = gen.normal(0.0, noise_sigma(nranks), size=nranks)
        kernel = (
            grayscott_launch_cost(model.local_shape, model.backend).seconds
            * (1.0 + jitter)
        )
        return kernel, comm


class TestFig8Golden:
    def test_run_point_bitwise_equals_job_write_seconds(self):
        """Overlap-free engine schedule == the closed-form max over
        nodes, bitwise, across the whole ladder."""
        model = IoWeakScalingModel(local_shape=SHAPE)
        for nranks in (1, 8, 64, 512, 4096):
            point = model.run_point(nranks)
            nnodes, bytes_per_node = model._layout(nranks)
            assert point.write_seconds == model.model.job_write_seconds(
                nnodes, bytes_per_node
            )

    def test_pipeline_serial_matches_analytic_sum(self):
        """Overlap off, the schedule is the serial sum bitwise: every job
        size 1, 2, 4, ..., 4,096 ranks x 1-8 output steps, small and default
        blocks."""
        for model in (IoWeakScalingModel(local_shape=SHAPE), IoWeakScalingModel()):
            for nranks in (2 ** k for k in range(13)):
                for steps in range(1, 9):
                    point = model.run_pipeline(nranks, steps=steps, overlap=False)
                    assert point.elapsed_seconds == point.serial_seconds, (
                        model.local_shape, nranks, steps)
                    assert point.overlap_speedup == 1.0

    def test_pipeline_overlap_beats_serial_with_floor(self):
        # equal-ish compute and write give the pipeline room to overlap
        model = IoWeakScalingModel(local_shape=SHAPE)
        nnodes, bytes_per_node = model._layout(64)
        write = model.model.write_seconds_per_node(nnodes, bytes_per_node, sample=0)
        point = model.run_pipeline(
            64, steps=6, compute_seconds_per_step=write, overlap=True
        )
        assert point.elapsed_seconds < point.serial_seconds
        # can't beat keeping the GCDs busy every step, nor draining all
        # the bytes of the slowest node
        assert point.elapsed_seconds >= point.steps * point.compute_seconds_per_step
        assert point.overlap_speedup > 1.0

    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("steps", [1, 3, 6])
    @pytest.mark.parametrize("nranks", [1, 8, 64, 4096])
    def test_pipeline_bitwise_equals_per_node_loop(self, nranks, steps, overlap):
        model = IoWeakScalingModel(local_shape=SHAPE)
        nnodes, bytes_per_node = model._layout(nranks)
        # compute == write too: the Join ties then resolve both ways
        for compute in (None, model.model.write_seconds_per_node(
                nnodes, bytes_per_node, sample=0)):
            point = model.run_pipeline(
                nranks, steps=steps, compute_seconds_per_step=compute,
                overlap=overlap,
            )
            elapsed, serial = self._per_node_loop(
                model, nranks, steps, point.compute_seconds_per_step, overlap
            )
            assert point.elapsed_seconds == elapsed
            assert point.serial_seconds == serial

    @staticmethod
    def _per_node_loop(model, nranks, steps, compute, overlap):
        """Each node's solve/write schedule as plain float arithmetic."""
        nnodes, bytes_per_node = model._layout(nranks)
        writes = [
            model.model.write_seconds_per_node(
                nnodes, bytes_per_node,
                sample=range(step * 1_000_003, step * 1_000_003 + nnodes),
            ).tolist()
            for step in range(steps)
        ]
        ends, serials = [], []
        for node in range(nnodes):
            t, pending = 0.0, None
            for step in range(steps):
                t = t + compute
                write = writes[step][node]
                if overlap:
                    if pending is not None:
                        t = max(t, pending)  # join the in-flight write
                    pending = t + write
                else:
                    t = t + write
            if pending is not None:
                t = max(t, pending)
            ends.append(t)
            serial = 0.0
            for step in range(steps):
                serial = serial + compute + writes[step][node]
            serials.append(serial)
        return max(ends), max(serials)

    def test_pipeline_is_deterministic(self):
        model = IoWeakScalingModel(local_shape=SHAPE)
        a = model.run_pipeline(64, steps=3, overlap=True)
        b = model.run_pipeline(64, steps=3, overlap=True)
        assert a.elapsed_seconds == b.elapsed_seconds
