"""Physical parameters of the Gray-Scott model (paper Eqs. 1a/1b).

The model couples two concentrations U and V:

    dU/dt = Du * lap(U) - U V^2 + F (1 - U) + n r
    dV/dt = Dv * lap(V) + U V^2 - (F + k) V

with diffusion rates Du, Dv, feed rate F, kill rate k, noise magnitude
n, and r ~ Uniform(-1, 1) per cell per step. The defaults are the
values of the paper's provenance record (Listing 1): Du=0.2, Dv=0.1,
F=0.02, k=0.048, noise=0.1, dt=1.

``PEARSON_REGIMES`` collects classic (F, k) pairs from Pearson (1993),
Science 261:5118 — the paper's reference [33] — used by the pattern
gallery example.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.util.errors import ConfigError


@dataclass(frozen=True)
class GrayScottParams:
    """Inputs of Eqs. (1a)/(1b), with the paper's Listing 1 defaults."""

    Du: float = 0.2
    Dv: float = 0.1
    F: float = 0.02
    k: float = 0.048
    noise: float = 0.1
    dt: float = 1.0

    def __post_init__(self) -> None:
        if self.Du < 0 or self.Dv < 0:
            raise ConfigError(f"diffusion rates must be >= 0 (Du={self.Du}, Dv={self.Dv})")
        if self.F < 0 or self.k < 0:
            raise ConfigError(f"feed/kill rates must be >= 0 (F={self.F}, k={self.k})")
        if self.noise < 0:
            raise ConfigError(f"noise magnitude must be >= 0 ({self.noise})")
        if self.dt <= 0:
            raise ConfigError(f"dt must be > 0 ({self.dt})")
        # Forward-Euler stability for the normalized 7-point Laplacian
        # (eigenvalues in [-2, 0] for lap = -u + mean(neighbours)):
        # dt * max(Du, Dv) * 2 < 2  =>  dt * max(Du, Dv) < 1.
        if self.dt * max(self.Du, self.Dv) >= 1.0:
            raise ConfigError(
                f"unstable time step: dt*max(Du,Dv) = "
                f"{self.dt * max(self.Du, self.Dv):.3f} must be < 1"
            )

    def with_overrides(self, **kwargs) -> "GrayScottParams":
        """A copy with some fields replaced (validated again)."""
        return replace(self, **kwargs)

    def as_attributes(self) -> dict[str, float]:
        """The provenance attributes written to every dataset (Listing 1)."""
        return {
            "Du": self.Du,
            "Dv": self.Dv,
            "F": self.F,
            "k": self.k,
            "noise": self.noise,
            "dt": self.dt,
        }


#: Pearson (1993) pattern regimes: name -> (F, k). Diffusion and dt are
#: the paper's defaults; noise is typically disabled when exploring.
PEARSON_REGIMES: dict[str, tuple[float, float]] = {
    "alpha": (0.010, 0.047),
    "beta": (0.026, 0.051),
    "gamma": (0.022, 0.051),
    "delta": (0.030, 0.055),
    "epsilon": (0.018, 0.055),
    "zeta": (0.025, 0.060),
    "eta": (0.034, 0.063),
    "theta": (0.030, 0.057),
    "iota": (0.046, 0.0594),
    "kappa": (0.050, 0.063),
    "lambda": (0.026, 0.061),
    "mu": (0.058, 0.065),
    "paper": (0.02, 0.048),  # Listing 1's values
}
