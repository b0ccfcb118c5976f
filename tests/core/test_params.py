import pytest

from repro.core.params import GrayScottParams, PEARSON_REGIMES
from repro.util.errors import ConfigError


class TestGrayScottParams:
    def test_paper_defaults(self):
        """Listing 1's provenance values."""
        p = GrayScottParams()
        assert (p.Du, p.Dv, p.F, p.k, p.noise, p.dt) == (
            0.2, 0.1, 0.02, 0.048, 0.1, 1.0
        )

    def test_as_attributes(self):
        attrs = GrayScottParams().as_attributes()
        assert set(attrs) == {"Du", "Dv", "F", "k", "noise", "dt"}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"Du": -0.1},
            {"Dv": -1},
            {"F": -0.01},
            {"k": -0.01},
            {"noise": -0.5},
            {"dt": 0},
            {"dt": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            GrayScottParams(**kwargs)

    def test_stability_limit(self):
        with pytest.raises(ConfigError, match="unstable"):
            GrayScottParams(Du=0.5, dt=2.5)
        GrayScottParams(Du=0.5, dt=1.9)  # ok

    def test_with_overrides(self):
        p = GrayScottParams().with_overrides(F=0.03)
        assert p.F == 0.03
        assert p.Du == 0.2
        with pytest.raises(ConfigError):
            GrayScottParams().with_overrides(dt=-1)


class TestPearsonRegimes:
    def test_paper_regime_matches_defaults(self):
        d = GrayScottParams()
        assert PEARSON_REGIMES["paper"] == (d.F, d.k)

    def test_all_regimes_are_stable(self):
        for F, k in PEARSON_REGIMES.values():
            GrayScottParams(F=F, k=k)  # construction validates
