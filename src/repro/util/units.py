"""Byte/bandwidth/time units and human-readable formatting.

The paper mixes decimal units (GB/s bandwidths, file-system TB/s) with
binary sizes (HBM capacity); we keep both families explicit so model
code never multiplies the wrong constant.
"""

from __future__ import annotations

# Decimal (SI) byte units — used for bandwidths throughout the paper.
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000
TB = 1_000_000_000_000

# Binary (IEC) byte units — used for memory capacities.
KiB = 1 << 10
MiB = 1 << 20
GiB = 1 << 30
TiB = 1 << 40

_SI_SUFFIXES = [(TB, "TB"), (GB, "GB"), (MB, "MB"), (KB, "KB")]
_IEC_SUFFIXES = [(TiB, "TiB"), (GiB, "GiB"), (MiB, "MiB"), (KiB, "KiB")]


def format_bytes(nbytes: float, *, binary: bool = False, precision: int = 2) -> str:
    """Render a byte count with the largest suffix that keeps value >= 1.

    >>> format_bytes(25_080_000_000)
    '25.08 GB'
    >>> format_bytes(8 * GiB, binary=True)
    '8.00 GiB'
    """
    if nbytes < 0:
        raise ValueError(f"byte count must be non-negative, got {nbytes}")
    suffixes = _IEC_SUFFIXES if binary else _SI_SUFFIXES
    for factor, suffix in suffixes:
        if nbytes >= factor:
            return f"{nbytes / factor:.{precision}f} {suffix}"
    return f"{nbytes:.0f} B"


def format_bandwidth(bytes_per_second: float, *, precision: int = 1) -> str:
    """Render a bandwidth in the paper's GB/s (or TB/s) convention.

    >>> format_bandwidth(1_163_000_000_000)
    '1163.0 GB/s'
    """
    if bytes_per_second < 0:
        raise ValueError("bandwidth must be non-negative")
    if bytes_per_second >= 10 * TB:
        return f"{bytes_per_second / TB:.{precision}f} TB/s"
    if bytes_per_second >= MB:
        return f"{bytes_per_second / GB:.{precision}f} GB/s"
    return f"{bytes_per_second / KB:.{precision}f} KB/s"


def format_seconds(seconds: float, *, precision: int = 2) -> str:
    """Render a duration with a natural unit (us/ms/s/min).

    >>> format_seconds(0.02874)
    '28.74 ms'
    """
    if seconds < 0:
        raise ValueError("duration must be non-negative")
    if seconds < 1e-3:
        return f"{seconds * 1e6:.{precision}f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.{precision}f} ms"
    if seconds < 120.0:
        return f"{seconds:.{precision}f} s"
    return f"{seconds / 60.0:.{precision}f} min"
