"""Seeded-bug tests for the ADIOS writer-protocol verifier."""

import pytest

from repro.adios.engines import BP5Writer
from repro.core.execute import JobSpec, execute_job
from repro.core.settings import GrayScottSettings
from repro.lint import WriterScript, check_writer_script, writer_script_for
from repro.lint.adiosproto import PUT, WriterOp
from repro.util.errors import LintError


def _rules(report):
    return {d.rule for d in report.diagnostics}


def _script(shape=(4, 4, 4)):
    return WriterScript(nranks=1, shapes={"U": shape, "step": ()})


class TestStateMachine:
    def test_put_outside_step(self):
        script = _script().put(0, "U", (0, 0, 0), (4, 4, 4)).close(0)
        assert "ADIOS-PUT-OUTSIDE-STEP" in _rules(check_writer_script(script))

    def test_nested_begin(self):
        script = _script().begin_step(0).begin_step(0)
        assert "ADIOS-NESTED-BEGIN" in _rules(check_writer_script(script))

    def test_end_without_begin(self):
        script = _script().end_step(0).close(0)
        assert "ADIOS-END-UNOPENED" in _rules(check_writer_script(script))

    def test_close_inside_step(self):
        script = _script().begin_step(0).close(0)
        assert "ADIOS-CLOSE-IN-STEP" in _rules(check_writer_script(script))

    def test_op_after_close(self):
        script = _script().close(0).begin_step(0)
        assert "ADIOS-PUT-OUTSIDE-STEP" in _rules(check_writer_script(script))

    def test_unclosed_step_warns(self):
        script = _script().begin_step(0)
        report = check_writer_script(script)
        assert "ADIOS-UNCLOSED-STEP" in _rules(report)
        assert not report.errors

    def test_step_skew_across_ranks(self):
        script = WriterScript(nranks=2, shapes={"step": ()})
        script.begin_step(0).end_step(0).begin_step(0).end_step(0).close(0)
        script.begin_step(1).end_step(1).close(1)
        report = check_writer_script(script)
        skews = [d for d in report.diagnostics if d.rule == "ADIOS-STEP-SKEW"]
        assert skews and "rank0=2" in skews[0].message


class TestSelections:
    def test_unknown_variable(self):
        script = _script().begin_step(0).put(
            0, "W", (0, 0, 0), (4, 4, 4)
        ).end_step(0).close(0)
        assert "ADIOS-UNKNOWN-VAR" in _rules(check_writer_script(script))

    def test_wrong_selection_rank(self):
        script = _script().begin_step(0).put(
            0, "U", (0, 0), (4, 4)
        ).end_step(0).close(0)
        assert "ADIOS-BAD-SELECTION" in _rules(check_writer_script(script))

    def test_oob_block(self):
        # the ISSUE's canonical seed: a block hanging off the global shape
        script = _script().begin_step(0).put(
            0, "U", (0, 0, 2), (4, 4, 4)
        ).end_step(0).close(0)
        report = check_writer_script(script)
        rules = _rules(report)
        assert "ADIOS-OOB-BLOCK" in rules
        # the invalid block writes nothing, so the step also has a gap
        assert "ADIOS-GAP" in rules

    def test_overlapping_blocks(self):
        script = WriterScript(nranks=2, shapes={"U": (4, 4, 4)})
        script.begin_step(0).put(0, "U", (0, 0, 0), (4, 4, 3)).end_step(0)
        script.close(0)
        script.begin_step(1).put(1, "U", (0, 0, 2), (4, 4, 2)).end_step(1)
        script.close(1)
        report = check_writer_script(script)
        overlaps = [d for d in report.diagnostics if d.rule == "ADIOS-OVERLAP"]
        assert overlaps and "16" in overlaps[0].message

    def test_gap_warns(self):
        script = _script().begin_step(0).put(
            0, "U", (0, 0, 0), (4, 4, 3)
        ).end_step(0).close(0)
        report = check_writer_script(script)
        gaps = [d for d in report.diagnostics if d.rule == "ADIOS-GAP"]
        assert gaps and "16 of 64" in gaps[0].message
        assert not report.errors

    def test_exact_tiling_is_clean(self):
        script = WriterScript(nranks=2, shapes={"U": (4, 4, 4)})
        for rank, z0 in ((0, 0), (1, 2)):
            script.begin_step(rank)
            script.put(rank, "U", (0, 0, z0), (4, 4, 2))
            script.end_step(rank)
            script.close(rank)
        report = check_writer_script(script)
        assert report.clean, [d.render() for d in report.diagnostics]

    def test_scalar_put_needs_no_selection(self):
        script = _script().begin_step(0).put(0, "step").put(
            0, "U", (0, 0, 0), (4, 4, 4)
        ).end_step(0).close(0)
        assert check_writer_script(script).clean

    def test_rank_outside_script_rejected(self):
        with pytest.raises(LintError, match="outside"):
            _script().begin_step(3)


class TestWriterScriptFor:
    def test_serial_settings_produce_clean_script(self):
        settings = GrayScottSettings(L=8, steps=20, plotgap=10, ranks=0)
        script = writer_script_for(settings)
        report = check_writer_script(script)
        assert report.clean, [d.render() for d in report.diagnostics]
        assert report.facts["adios.script.nranks"] == 1
        # the step-0 snapshot and steps 10 and 20
        assert report.facts["adios.script.steps"] == 3

    def test_parallel_settings_tile_exactly(self):
        settings = GrayScottSettings(L=8, steps=20, plotgap=10, ranks=4)
        report = check_writer_script(writer_script_for(settings))
        assert report.clean, [d.render() for d in report.diagnostics]
        assert report.facts["adios.script.nranks"] == 4

    @pytest.mark.parametrize("ranks", [0, 4])
    def test_script_is_what_the_workflow_writes(self, ranks, tmp_path, monkeypatch):
        settings = GrayScottSettings(
            L=8, steps=4, plotgap=2, ranks=ranks, output=str(tmp_path / "o.bp")
        )
        recorded: dict[int, list[WriterOp]] = {}

        def recording(name):
            call = getattr(BP5Writer, name)

            def wrapper(self, *args):
                op = WriterOp(name)
                if name == PUT:
                    var = args[0]
                    op = WriterOp(PUT, var.name, var.start, var.count)
                recorded.setdefault(self.rank, []).append(op)
                return call(self, *args)

            monkeypatch.setattr(BP5Writer, name, wrapper)

        for name in ("begin_step", "put", "end_step", "close"):
            recording(name)
        execute_job(JobSpec(settings=settings, analyze=False))
        assert recorded == writer_script_for(settings).ops
