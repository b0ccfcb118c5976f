import numpy as np
import pytest

from repro.analysis.imageio import (
    colormap,
    snapshot_dataset,
    write_pgm,
    write_ppm,
)
from repro.util.errors import ReproError
from tests.oracles.readers import read_pgm


class TestPgm:
    def test_roundtrip(self, tmp_path):
        plane = np.linspace(0, 1, 48).reshape(6, 8)
        path = write_pgm(plane, tmp_path / "x.pgm")
        back = read_pgm(path)
        assert back.shape == (6, 8)
        assert back[0, 0] == 0
        assert back[-1, -1] == 255

    def test_fixed_range_clips(self, tmp_path):
        plane = np.array([[2.0, -1.0]])
        path = write_pgm(plane, tmp_path / "c.pgm", value_range=(0.0, 1.0))
        back = read_pgm(path)
        assert back[0, 0] == 255 and back[0, 1] == 0

    def test_constant_plane(self, tmp_path):
        path = write_pgm(np.full((4, 4), 7.0), tmp_path / "k.pgm")
        assert (read_pgm(path) == 0).all()

    def test_header(self, tmp_path):
        path = write_pgm(np.zeros((3, 5)), tmp_path / "h.pgm")
        header = path.read_bytes()[:12]
        assert header.startswith(b"P5\n5 3\n255\n")

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            write_pgm(np.zeros((2, 2, 2)), tmp_path / "bad.pgm")

    def test_read_garbage_rejected(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P6\n2 2\n255\nxxxx")
        with pytest.raises(ReproError):
            read_pgm(bad)


class TestPpm:
    def test_header_and_size(self, tmp_path):
        path = write_ppm(np.random.default_rng(0).random((10, 12)), tmp_path / "x.ppm")
        raw = path.read_bytes()
        assert raw.startswith(b"P6\n12 10\n255\n")
        header_len = len(b"P6\n12 10\n255\n")
        assert len(raw) - header_len == 10 * 12 * 3

    def test_colormap_endpoints(self):
        rgb = colormap(np.array([0.0, 1.0]))
        assert tuple(rgb[0]) == (68, 1, 84)  # viridis dark purple
        assert tuple(rgb[1]) == (253, 231, 37)  # viridis yellow

    def test_colormap_monotone_green_channel(self):
        rgb = colormap(np.linspace(0, 1, 11))
        greens = rgb[:, 1].astype(int)
        assert (np.diff(greens) >= 0).all()


class TestSnapshotDataset:
    def test_one_image_per_step(self, tmp_path):
        from repro import GrayScottSettings, Workflow
        from repro.analysis.reader import GrayScottDataset

        settings = GrayScottSettings(
            L=12, steps=6, plotgap=3, noise=0.02,
            output=str(tmp_path / "snap.bp"),
        )
        Workflow(settings).run(analyze=False)
        ds = GrayScottDataset(settings.output)
        images = snapshot_dataset(ds, tmp_path / "frames", color=False)
        assert len(images) == 3
        for image in images:
            assert image.exists()
            assert read_pgm(image).shape == (12, 12)

    def test_color_snapshots(self, tmp_path):
        from repro import GrayScottSettings, Workflow
        from repro.analysis.reader import GrayScottDataset

        settings = GrayScottSettings(
            L=12, steps=3, plotgap=3, noise=0.0,
            output=str(tmp_path / "c.bp"),
        )
        Workflow(settings).run(analyze=False)
        ds = GrayScottDataset(settings.output)
        images = snapshot_dataset(ds, tmp_path / "frames")
        assert all(p.suffix == ".ppm" for p in images)
