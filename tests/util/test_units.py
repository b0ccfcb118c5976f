import pytest

from repro.util.units import (
    GB,
    KB,
    MB,
    TB,
    GiB,
    KiB,
    MiB,
    TiB,
    format_bandwidth,
    format_bytes,
    format_seconds,
)


class TestFormatBytes:
    def test_gb(self):
        assert format_bytes(25_080_000_000) == "25.08 GB"

    def test_binary(self):
        assert format_bytes(8 * GiB, binary=True) == "8.00 GiB"

    def test_small(self):
        assert format_bytes(512) == "512 B"

    def test_zero(self):
        assert format_bytes(0) == "0 B"

    def test_tb(self):
        assert format_bytes(5.5 * TB) == "5.50 TB"

    def test_precision(self):
        assert format_bytes(1_234_000_000, precision=1) == "1.2 GB"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_bytes(-1)


class TestFormatBandwidth:
    def test_gb_s(self):
        assert format_bandwidth(1_163_000_000_000) == "1163.0 GB/s"

    def test_tb_s(self):
        assert format_bandwidth(55 * TB) == "55.0 TB/s"

    def test_kb_s(self):
        assert format_bandwidth(500_000) == "500.0 KB/s"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_bandwidth(-5)


class TestFormatSeconds:
    def test_ms(self):
        assert format_seconds(0.02874) == "28.74 ms"

    def test_us(self):
        assert format_seconds(2e-6) == "2.00 us"

    def test_seconds(self):
        assert format_seconds(1.5) == "1.50 s"

    def test_minutes(self):
        assert format_seconds(600) == "10.00 min"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_seconds(-0.1)


class TestUnitBoundaries:
    """Each suffix starts exactly at its factor: one below keeps the smaller unit."""

    @pytest.mark.parametrize(
        "nbytes,text",
        [(KB - 1, "999 B"), (KB, "1.00 KB"), (MB, "1.00 MB"), (GB, "1.00 GB"),
         (TB, "1.00 TB")],
    )
    def test_si_bytes(self, nbytes, text):
        assert format_bytes(nbytes) == text

    @pytest.mark.parametrize(
        "nbytes,text",
        [(KiB - 1, "1023 B"), (KiB, "1.00 KiB"), (MiB, "1.00 MiB"),
         (GiB, "1.00 GiB"), (TiB, "1.00 TiB")],
    )
    def test_iec_bytes(self, nbytes, text):
        assert format_bytes(nbytes, binary=True) == text

    @pytest.mark.parametrize(
        "seconds,text",
        [(0.0, "0.00 us"), (1e-3, "1.00 ms"), (1.0, "1.00 s"),
         (119.0, "119.00 s"), (120.0, "2.00 min")],
    )
    def test_seconds(self, seconds, text):
        assert format_seconds(seconds) == text

    @pytest.mark.parametrize(
        "rate,text",
        [(0, "0.0 KB/s"), (10 * TB - GB, "9999.0 GB/s"), (10 * TB, "10.0 TB/s")],
    )
    def test_bandwidth(self, rate, text):
        assert format_bandwidth(rate) == text
