import numpy as np
import pytest

from repro.analysis.spectrum import (
    dominant_wavelength,
    radial_power_spectrum,
)
from repro.util.errors import ReproError


def _sinusoid(n, cycles, axis=0):
    x = np.arange(n)
    wave = np.sin(2 * np.pi * cycles * x / n)
    return np.tile(wave[:, None] if axis == 0 else wave[None, :], (1, n) if axis == 0 else (n, 1))


class TestRadialPowerSpectrum:
    def test_single_mode_peaks_at_its_wavenumber(self):
        plane = _sinusoid(64, cycles=8)
        k, power = radial_power_spectrum(plane)
        assert k[int(np.argmax(power))] == pytest.approx(8, abs=0.5)

    def test_dc_excluded(self):
        plane = np.full((32, 32), 5.0)
        k, power = radial_power_spectrum(plane)
        assert power.max() == pytest.approx(0.0, abs=1e-18)

    def test_isotropy(self):
        """The same mode along x or y lands in the same radial bin."""
        kx, px = radial_power_spectrum(_sinusoid(64, 6, axis=0))
        ky, py = radial_power_spectrum(_sinusoid(64, 6, axis=1))
        assert kx[int(np.argmax(px))] == ky[int(np.argmax(py))]

    def test_rejects_bad_input(self):
        with pytest.raises(ReproError):
            radial_power_spectrum(np.zeros((4, 4, 4)))
        with pytest.raises(ReproError):
            radial_power_spectrum(np.zeros((2, 2)))


class TestDominantWavelength:
    def test_sinusoid_wavelength(self):
        plane = _sinusoid(64, cycles=8)  # wavelength 8 cells
        assert dominant_wavelength(plane) == pytest.approx(8.0, rel=0.1)

    def test_flat_plane_infinite(self):
        assert dominant_wavelength(np.zeros((16, 16))) == float("inf")

    def test_gray_scott_pattern_has_finite_wavelength(self, tmp_path):
        from repro import GrayScottSettings, Workflow
        from repro.analysis.reader import GrayScottDataset

        settings = GrayScottSettings(
            L=32, steps=600, plotgap=600, noise=0.0,
            F=0.018, k=0.055,  # epsilon regime: spots
            output=str(tmp_path / "eps.bp"),
        )
        Workflow(settings).run(analyze=False)
        plane = GrayScottDataset(settings.output).slice2d("V", axis=2)
        wavelength = dominant_wavelength(plane)
        assert 3.0 < wavelength < 32.0
