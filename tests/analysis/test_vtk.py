import numpy as np
import pytest

from repro.analysis.vtk import write_vti
from repro.util.errors import ReproError
from tests.oracles.readers import read_vti_field


class TestWriteVti:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        u = np.asfortranarray(rng.random((4, 5, 6)))
        v = np.asfortranarray(rng.random((4, 5, 6)))
        path = write_vti({"U": u, "V": v}, tmp_path / "x.vti")
        back_u = read_vti_field(path, "U")
        back_v = read_vti_field(path, "V")
        assert np.allclose(back_u, u, atol=1e-8)
        assert np.allclose(back_v, v, atol=1e-8)

    def test_valid_xml_structure(self, tmp_path):
        import xml.etree.ElementTree as ET

        path = write_vti({"U": np.zeros((2, 2, 2))}, tmp_path / "s.vti")
        root = ET.parse(path).getroot()
        assert root.tag == "VTKFile"
        assert root.get("type") == "ImageData"
        image = root.find("ImageData")
        assert image.get("WholeExtent") == "0 2 0 2 0 2"
        assert image.find("Piece/CellData").get("Scalars") == "U"

    def test_spacing_origin(self, tmp_path):
        import xml.etree.ElementTree as ET

        path = write_vti(
            {"U": np.zeros((2, 2, 2))}, tmp_path / "sp.vti",
            spacing=(0.5, 0.5, 0.5), origin=(1, 2, 3),
        )
        image = ET.parse(path).getroot().find("ImageData")
        assert image.get("Spacing") == "0.5 0.5 0.5"
        assert image.get("Origin") == "1 2 3"

    def test_empty_fields_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            write_vti({}, tmp_path / "e.vti")

    def test_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            write_vti(
                {"U": np.zeros((2, 2, 2)), "V": np.zeros((3, 3, 3))},
                tmp_path / "m.vti",
            )

    def test_non_3d_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            write_vti({"U": np.zeros((4, 4))}, tmp_path / "2d.vti")

    def test_missing_field_on_read(self, tmp_path):
        path = write_vti({"U": np.zeros((2, 2, 2))}, tmp_path / "r.vti")
        with pytest.raises(ReproError, match="no DataArray"):
            read_vti_field(path, "W")
