"""JSON settings files, compatible with the GrayScott.jl artifact.

The paper's artifact configures runs through JSON settings files
(``examples/settings-files.json`` in the GrayScott.jl repository) with
keys like ``L``, ``Du``, ``Dv``, ``F``, ``k``, ``dt``, ``steps``,
``plotgap``, ``noise``, ``output``, ``checkpoint``. This module reads
and writes that schema and adds the knobs our reproduction introduces
(backend, decomposition) under the same flat-JSON style; unknown keys
are rejected so typos fail loudly. That includes the retired
``exchange`` key (the ghost exchange has one schedule, Listing 3's),
which only :func:`repro.core.restart.restore_checkpoint` forgives.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from repro.core.params import GrayScottParams
from repro.util.errors import ConfigError


@dataclass(frozen=True)
class GrayScottSettings:
    """One run configuration (the artifact's settings-file schema)."""

    #: global cells per dimension (the domain is L x L x L)
    L: int = 64
    #: optional non-cubic global shape; 0 means "use L" for that axis
    nx: int = 0
    ny: int = 0
    nz: int = 0
    Du: float = 0.2
    Dv: float = 0.1
    F: float = 0.02
    k: float = 0.048
    dt: float = 1.0
    noise: float = 0.1
    #: total simulation steps
    steps: int = 100
    #: write output every `plotgap` steps
    plotgap: int = 10
    #: output dataset name
    output: str = "gs.bp"
    #: checkpoint file ("" disables checkpointing)
    checkpoint: str = ""
    #: checkpoint every `checkpoint_freq` steps (when enabled)
    checkpoint_freq: int = 700
    #: RNG seed for the noise term
    seed: int = 42
    #: compute backend: "cpu" (the lowered kernel) or a simulated GPU
    #: backend name ("julia", "hip")
    backend: str = "cpu"
    #: adios engine for output
    adios_engine: str = "BP5"
    #: precision of the fields ("float64" or "float32")
    precision: str = "float64"
    #: boundary conditions: "periodic" (the paper's) or "neumann"
    #: (zero-flux walls)
    boundary: str = "periodic"
    #: simulated MPI ranks for CLI runs; 0/1 means serial
    ranks: int = 0

    def __post_init__(self) -> None:
        # Normalize numeric types before validation: JSON settings files
        # (and with_overrides calls) may carry `1` where the field is a
        # float. Without this, `F=1` and `F=1.0` would be equal settings
        # with different to_json bytes — and different canonical_hash
        # digests. -0.0 folds to 0.0 for the same reason: equal values
        # must serialize identically.
        for spec in fields(self):
            if spec.type != "float":
                continue
            value = getattr(self, spec.name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            # `+ 0.0` folds -0.0 to +0.0; the fold is unconditional
            # because -0.0 == 0.0 would defeat any equality guard
            object.__setattr__(self, spec.name, float(value) + 0.0)
        if self.L < 4:
            raise ConfigError(f"L must be >= 4 (got {self.L})")
        for axis, n in (("nx", self.nx), ("ny", self.ny), ("nz", self.nz)):
            if n != 0 and n < 4:
                raise ConfigError(f"{axis} must be 0 (use L) or >= 4 (got {n})")
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0 (got {self.steps})")
        if self.plotgap <= 0:
            raise ConfigError(f"plotgap must be > 0 (got {self.plotgap})")
        if self.checkpoint and self.checkpoint_freq <= 0:
            raise ConfigError(f"checkpoint_freq must be > 0 (got {self.checkpoint_freq})")
        if self.precision not in ("float64", "float32"):
            raise ConfigError(f"precision must be float64|float32 (got {self.precision!r})")
        if self.backend not in ("cpu", "julia", "hip"):
            raise ConfigError(
                f"backend must be cpu|julia|hip (got {self.backend!r})"
            )
        if self.boundary not in ("periodic", "neumann"):
            raise ConfigError(
                f"boundary must be periodic|neumann (got {self.boundary!r})"
            )
        if self.ranks < 0:
            raise ConfigError(f"ranks must be >= 0 (got {self.ranks})")
        # validate the physics eagerly so bad settings files fail at load
        self.params()

    def params(self) -> GrayScottParams:
        return GrayScottParams(
            Du=self.Du, Dv=self.Dv, F=self.F, k=self.k, noise=self.noise, dt=self.dt
        )

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx or self.L, self.ny or self.L, self.nz or self.L)

    def with_overrides(self, **kwargs) -> "GrayScottSettings":
        return replace(self, **kwargs)

    # -- canonical identity -------------------------------------------------
    def canonical_json(self) -> str:
        """The canonical one-line serialization: sorted keys, no spaces.

        Because ``__post_init__`` normalizes numeric types, two settings
        objects compare equal if and only if their canonical JSON is
        byte-identical — regardless of the field order of the settings
        file they were loaded from, or how many ``to_json``/``from_json``
        / ``with_overrides`` round trips they went through.
        """
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    def canonical_hash(self) -> str:
        """A stable content digest of this configuration (hex sha256).

        This is the cache key of :class:`repro.serve.ResultStore`:
        identical configurations — under any serialization round trip —
        hash identically, so a service answers them from cache.
        """
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    # -- JSON round trip ----------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "GrayScottSettings":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"settings file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("settings JSON must be an object")
        known = set(cls.__dataclass_fields__)  # type: ignore[attr-defined]
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(
                f"unknown settings keys: {sorted(unknown)}; known: {sorted(known)}"
            )
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(f"bad settings value types: {exc}") from exc

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path) -> "GrayScottSettings":
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"settings file not found: {p}")
        return cls.from_json(p.read_text())
