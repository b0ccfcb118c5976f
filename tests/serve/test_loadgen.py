import asyncio

import pytest

from repro.core.settings import GrayScottSettings
from repro.serve.loadgen import (
    LoadReport,
    _schedule,
    drive_load,
    generate_specs,
    run_load,
)
from repro.serve.service import SimService
from repro.util.errors import ConfigError


@pytest.fixture
def settings(tmp_path):
    return GrayScottSettings(
        L=12, steps=4, plotgap=2, output=str(tmp_path / "gs.bp")
    )


class TestGenerateSpecs:
    def test_all_keys_distinct(self, settings):
        specs = generate_specs(settings, 10)
        keys = {s.canonical_key() for s in specs}
        assert len(keys) == 10

    def test_spec_zero_is_the_base(self, settings):
        specs = generate_specs(settings, 3)
        assert specs[0].settings == settings

    def test_variations_stay_valid(self, settings):
        for spec in generate_specs(settings, 20):
            assert spec.settings.F > 0 and spec.settings.k > 0

    def test_bad_inputs_rejected(self, settings):
        with pytest.raises(ConfigError):
            generate_specs(settings, 0)
        with pytest.raises(ConfigError):
            generate_specs(settings, 2, mode="warp")


class TestSchedule:
    def test_deterministic_for_same_seed(self, settings):
        specs = generate_specs(settings, 8)
        a = _schedule(specs, clients=4, requests=5, hit_fraction=0.5, seed=9)
        b = _schedule(specs, clients=4, requests=5, hit_fraction=0.5, seed=9)
        assert [[s.canonical_key() for s in c] for c in a] == [
            [s.canonical_key() for s in c] for c in b
        ]

    def test_covers_all_clients_and_requests(self, settings):
        specs = generate_specs(settings, 8)
        sched = _schedule(specs, clients=3, requests=7, hit_fraction=0.5,
                          seed=1)
        assert len(sched) == 3
        assert sum(len(c) for c in sched) == 21

    def test_first_request_is_the_hot_spec(self, settings):
        specs = generate_specs(settings, 4)
        sched = _schedule(specs, clients=2, requests=3, hit_fraction=0.0,
                          seed=2)
        assert sched[0][0].canonical_key() == specs[0].canonical_key()

    def test_hit_fraction_one_repeats_hot_key_only(self, settings):
        specs = generate_specs(settings, 4)
        sched = _schedule(specs, clients=2, requests=4, hit_fraction=1.0,
                          seed=3)
        hot = specs[0].canonical_key()
        assert all(s.canonical_key() == hot for c in sched for s in c)


class TestLoadReport:
    def test_percentiles_and_ratio(self):
        report = LoadReport(clients=1, requests=4, hit_fraction=0.5)
        report.hit_latencies = [0.001, 0.002, 0.001, 0.002]
        report.miss_latencies = [0.1, 0.2, 0.15, 0.25]
        assert report.hit_p99 < report.miss_p99
        assert report.hit_miss_p99_ratio < 0.1

    def test_empty_samples_are_none(self):
        report = LoadReport(clients=1, requests=1, hit_fraction=0.0)
        assert report.hit_p50 is None
        assert report.hit_miss_p99_ratio is None

    def test_render_smoke(self):
        report = LoadReport(clients=2, requests=3, hit_fraction=0.5,
                            completed=6, wall_seconds=1.0)
        report.miss_latencies = [0.1] * 6
        text = report.render()
        assert "throughput" in text
        assert "hit/miss p99 ratio" in text

    def test_miss_percentiles_and_throughput(self):
        report = LoadReport(clients=2, requests=2, hit_fraction=0.0,
                            completed=4, wall_seconds=2.0)
        report.miss_latencies = [0.4, 0.1, 0.3, 0.2]
        assert report.miss_p50 == pytest.approx(0.25)
        assert report.miss_p99 == pytest.approx(0.397)
        assert report.throughput == 2.0

    def test_no_wall_time_is_zero_throughput(self):
        report = LoadReport(clients=1, requests=1, hit_fraction=0.0,
                            completed=3, wall_seconds=0.0)
        assert report.throughput == 0.0

    def test_as_dict_round_trips_json(self):
        import json

        report = LoadReport(clients=1, requests=1, hit_fraction=0.5,
                            completed=1, wall_seconds=0.5)
        assert json.loads(json.dumps(report.as_dict()))["completed"] == 1


class TestDriveLoad:
    def test_mixed_load_against_inline_service(self, settings):
        specs = generate_specs(settings, 4)

        async def main():
            async with SimService(backend="inline", workers=1) as service:
                return await drive_load(
                    service, specs, clients=4, requests=4,
                    hit_fraction=0.75, seed=7,
                )

        report = asyncio.run(main())
        assert report.completed == 16
        assert report.failed == 0
        assert report.cache_hits > 0
        assert len(report.hit_latencies) == report.cache_hits
        assert report.wall_seconds > 0

    def test_admission_reject_mode_counts_refusals(self, settings,
                                                   monkeypatch):
        def fake(spec):
            return {"result": None, "rendered": "r", "provenance": {}}

        monkeypatch.setattr("repro.serve.service.execute_and_render", fake)
        specs = generate_specs(settings, 32)

        async def main():
            async with SimService(
                backend="inline", workers=1, max_pending=1
            ) as service:
                return await drive_load(
                    service, specs, clients=8, requests=4,
                    hit_fraction=0.0, seed=5, admission="reject",
                )

        report = asyncio.run(main())
        assert report.completed + report.rejected == 32
        assert report.failed == 0

    def test_bad_admission_mode_rejected(self, settings):
        specs = generate_specs(settings, 2)

        async def main():
            async with SimService(backend="inline", workers=1) as service:
                await drive_load(service, specs, admission="maybe")

        with pytest.raises(ConfigError, match="admission"):
            asyncio.run(main())


class TestRunLoad:
    def test_end_to_end_thread_backend(self, settings, tmp_path):
        report, stats = run_load(
            settings, clients=4, requests=3, hit_fraction=0.7,
            workers=2, backend="thread",
            workdir=str(tmp_path / "jobs"),
        )
        assert report.completed == 12
        assert report.failed == 0
        assert stats["cache_hits"] == report.cache_hits
