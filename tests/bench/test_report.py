import json

import pytest

from repro.bench import report


@pytest.fixture(scope="module")
def collected():
    return report.collect()


class TestReport:
    def test_all_experiments_present(self, collected):
        assert set(collected["experiments"]) == {
            "table1", "table2", "table3", "fig6", "fig7", "fig8", "listing4",
        }

    def test_all_shape_checks_pass(self, collected):
        assert collected["summary"]["all_passed"], collected["summary"]

    def test_headline_values(self, collected):
        experiments = collected["experiments"]
        assert experiments["listing4"]["unique_loads"] == 14
        assert experiments["fig7"]["jit_cost_factor"] == pytest.approx(12.5, rel=0.1)
        hip = experiments["table2"]["rows"]["hip_1var"]
        julia = experiments["table2"]["rows"]["julia_1var_norand"]
        assert 0.4 < julia["total_gb_s"] / hip["total_gb_s"] < 0.65

    def test_json_serializable(self, collected):
        loaded = json.loads(json.dumps(collected))
        assert loaded["summary"]["all_passed"]
        assert loaded["repro_version"] == collected["repro_version"]

    def test_deterministic_given_seed(self):
        a = report.collect(seed=7)
        b = report.collect(seed=7)
        assert a["experiments"]["fig6"] == b["experiments"]["fig6"]
        assert a["experiments"]["fig8"] == b["experiments"]["fig8"]
