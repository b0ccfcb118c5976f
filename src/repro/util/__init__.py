"""Shared utilities: units, RNG streams, timers, tables, errors.

These helpers are deliberately dependency-light; every other subpackage
builds on them.
"""

from repro.util.errors import (
    ReproError,
    ConfigError,
)
from repro.util.units import (
    KB,
    MB,
    GB,
    TB,
    KiB,
    MiB,
    GiB,
    TiB,
    format_bytes,
    format_bandwidth,
    format_seconds,
)
from repro.util.rngs import RngStream, seed_for
from repro.util.timers import WallTimer, SimClock
from repro.util.tables import Table
from repro.util.files import atomic_write_bytes, atomic_write_text

__all__ = [
    "ReproError",
    "ConfigError",
    "KB",
    "MB",
    "GB",
    "TB",
    "KiB",
    "MiB",
    "GiB",
    "TiB",
    "format_bytes",
    "format_bandwidth",
    "format_seconds",
    "RngStream",
    "seed_for",
    "WallTimer",
    "SimClock",
    "Table",
    "atomic_write_bytes",
    "atomic_write_text",
]
