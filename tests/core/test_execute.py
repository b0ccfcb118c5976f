import json

import pytest

from repro.core.execute import JobSpec, RunResult, execute_job
from repro.core.settings import GrayScottSettings
from repro.core.workflow import Workflow
from repro.util.errors import ConfigError


@pytest.fixture
def settings(tmp_path):
    return GrayScottSettings(
        L=12, steps=4, plotgap=2, output=str(tmp_path / "gs.bp")
    )


class TestJobSpec:
    def test_defaults_are_a_workflow_job(self, settings):
        spec = JobSpec(settings=settings)
        assert spec.mode == "workflow"
        assert spec.analyze and not spec.resume

    def test_bad_mode_rejected(self, settings):
        with pytest.raises(ConfigError, match="mode"):
            JobSpec(settings=settings, mode="hybrid")

    def test_virtual_needs_ranks(self, settings):
        with pytest.raises(ConfigError, match="virtual_ranks"):
            JobSpec(settings=settings, mode="virtual")

    def test_workflow_refuses_virtual_ranks(self, settings):
        with pytest.raises(ConfigError, match="virtual_ranks"):
            JobSpec(settings=settings, virtual_ranks=4)

    def test_canonical_json_is_sorted_and_compact(self, settings):
        text = JobSpec(settings=settings).canonical_json()
        obj = json.loads(text)
        assert list(obj) == sorted(obj)
        assert ": " not in text and ", " not in text

    def test_key_stable_across_equal_specs(self, settings):
        a = JobSpec(settings=settings)
        b = JobSpec(settings=GrayScottSettings.from_json(settings.to_json()))
        assert a.canonical_key() == b.canonical_key()

    def test_key_differs_by_mode_and_flags(self, tmp_path):
        s = GrayScottSettings(
            L=12, steps=4, plotgap=2, backend="julia",
            output=str(tmp_path / "gs.bp"),
        )
        keys = {
            JobSpec(settings=s).canonical_key(),
            JobSpec(settings=s, analyze=False).canonical_key(),
            JobSpec(settings=s, mode="virtual",
                    virtual_ranks=8).canonical_key(),
            JobSpec(settings=s, mode="virtual", virtual_ranks=8,
                    overlap=True).canonical_key(),
        }
        assert len(keys) == 4

    def test_key_differs_by_settings(self, settings):
        a = JobSpec(settings=settings)
        b = JobSpec(settings=settings.with_overrides(F=settings.F + 1e-3))
        assert a.canonical_key() != b.canonical_key()

    def test_fingerprint_prefixes_key(self, settings):
        spec = JobSpec(settings=settings)
        assert spec.canonical_key().startswith(spec.fingerprint)
        assert len(spec.fingerprint) == 12

    def test_with_output_changes_key_only_via_settings(self, settings,
                                                       tmp_path):
        spec = JobSpec(settings=settings)
        moved = spec.with_output(str(tmp_path / "elsewhere.bp"))
        assert moved.canonical_key() != spec.canonical_key()
        assert moved.mode == spec.mode
        assert moved.settings.L == spec.settings.L


class TestExecuteJob:
    def test_workflow_mode_matches_direct_workflow(self, settings):
        result = execute_job(JobSpec(settings=settings))
        direct = Workflow(
            settings.with_overrides(
                output=settings.output.replace("gs.bp", "direct.bp")
            )
        ).run()
        assert result.report is not None and result.virtual is None
        assert result.report.steps_run == direct.steps_run
        assert result.report.output_steps == direct.output_steps
        assert result.report.analysis.keys() == direct.analysis.keys()

    def test_result_carries_wall(self, settings):
        result = execute_job(JobSpec(settings=settings))
        assert result.wall_seconds > 0
        assert result.mode == "workflow"
        assert result.key == result.spec.canonical_key()

    def test_analyze_false_skips_analysis(self, settings):
        result = execute_job(JobSpec(settings=settings, analyze=False))
        assert result.report.analysis == {}

    def test_virtual_mode(self, tmp_path):
        s = GrayScottSettings(
            L=16, steps=4, plotgap=2, backend="julia",
            output=str(tmp_path / "v.bp"),
        )
        result = execute_job(JobSpec(settings=s, mode="virtual",
                                     virtual_ranks=4))
        assert result.virtual is not None and result.report is None
        assert result.virtual.nranks == 4

    def test_virtual_jobs_invariant(self, tmp_path):
        """jobs shards the engine but is not part of the canonical key —
        because the outcome is bit-identical."""
        s = GrayScottSettings(
            L=16, steps=4, plotgap=2, backend="julia",
            output=str(tmp_path / "v.bp"),
        )
        spec = JobSpec(settings=s, mode="virtual", virtual_ranks=8)
        serial = execute_job(spec, jobs=1)
        sharded = execute_job(spec, jobs=2)
        assert serial.render() == sharded.render()

    def test_render_and_provenance_delegate_to_present(self, settings):
        result = execute_job(JobSpec(settings=settings))
        assert result.render() == result.report.render()
        assert result.provenance()["workflow"] == "gray-scott"

    def test_empty_result_render_rejected(self, settings):
        hollow = RunResult(spec=JobSpec(settings=settings))
        with pytest.raises(ValueError, match="neither"):
            hollow.render()
