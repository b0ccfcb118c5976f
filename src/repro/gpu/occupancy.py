"""Wavefront occupancy: the structural story behind the codegen gap.

Table 3 shows *what* differs between the toolchains — AMDGPU.jl
launches 512-workitem workgroups carrying 29,184 B of LDS and 8,192 B
of scratch; HIP launches 256-workitem groups with neither — and the
calibrated efficiency factors encode the consequence. This module
closes the loop: from CDNA2 per-CU limits, those codegen facts *imply*
the achieved-bandwidth ratio.

A memory-bound kernel needs enough wavefronts in flight to cover HBM
latency; achieved bandwidth scales roughly with occupancy until the
saturation point. On an MI250x CU:

- 4 SIMDs x 8 wavefront slots = 32 resident wavefronts max;
- 64 KiB of LDS shared by all resident workgroups;
- a workgroup is resident as a unit (all its waves or none).

Julia: ceil(512/64) = 8 waves per group; floor(64 KiB / 29,184 B) = 2
resident groups -> 16 of 32 waves -> 50% occupancy. HIP: 4 waves per
group, no LDS limit -> full 32 waves. Occupancy ratio 0.5 — against the
calibrated efficiency ratio 0.397/0.746 = 0.53. The residual few
percent is the scratch (spill) traffic. ``tests/gpu/test_occupancy.py``
pins this agreement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.backends import BackendProfile, get_backend
from repro.util.errors import GpuError


@dataclass(frozen=True)
class CuLimits:
    """Per-CU resources of a CDNA2 (MI250x) compute unit."""

    wavefront_size: int = 64
    simds_per_cu: int = 4
    waves_per_simd: int = 8
    lds_bytes_per_cu: int = 64 * 1024
    max_workgroups_per_cu: int = 16

    @property
    def max_waves_per_cu(self) -> int:
        return self.simds_per_cu * self.waves_per_simd


@dataclass(frozen=True)
class OccupancyResult:
    """Resident-wave accounting for one kernel/backend on one CU."""

    backend: str
    waves_per_workgroup: int
    workgroups_by_lds: int
    workgroups_by_slots: int
    resident_workgroups: int
    resident_waves: int
    max_waves: int

    @property
    def occupancy(self) -> float:
        return self.resident_waves / self.max_waves

    @property
    def limiter(self) -> str:
        if self.resident_workgroups == self.workgroups_by_lds and (
            self.workgroups_by_lds < self.workgroups_by_slots
        ):
            return "LDS"
        return "wave slots"


def occupancy_for(
    backend: str | BackendProfile, limits: CuLimits | None = None
) -> OccupancyResult:
    """Occupancy a backend's codegen (Table 3's wgr/lds) achieves."""
    backend = get_backend(backend)
    limits = limits or CuLimits()
    lds_bytes = backend.lds_bytes
    waves_per_wg = -(-backend.workgroup_size // limits.wavefront_size)
    if waves_per_wg <= 0:
        raise GpuError(f"degenerate workgroup size {backend.workgroup_size}")
    if lds_bytes > limits.lds_bytes_per_cu:
        raise GpuError(
            f"{backend.name}: workgroup LDS {lds_bytes} exceeds the "
            f"CU's {limits.lds_bytes_per_cu}"
        )
    by_lds = (
        limits.lds_bytes_per_cu // lds_bytes
        if lds_bytes
        else limits.max_workgroups_per_cu
    )
    by_slots = min(
        limits.max_workgroups_per_cu,
        limits.max_waves_per_cu // waves_per_wg,
    )
    resident = max(1, min(by_lds, by_slots))
    waves = min(resident * waves_per_wg, limits.max_waves_per_cu)
    return OccupancyResult(
        backend=backend.name,
        waves_per_workgroup=waves_per_wg,
        workgroups_by_lds=by_lds,
        workgroups_by_slots=by_slots,
        resident_workgroups=resident,
        resident_waves=waves,
        max_waves=limits.max_waves_per_cu,
    )


def predicted_efficiency_ratio() -> float:
    """Julia/HIP achieved-bandwidth ratio implied by occupancy alone."""
    julia = occupancy_for("julia")
    hip = occupancy_for("hip")
    return julia.occupancy / hip.occupancy


def render_comparison() -> str:
    from repro.bench import calibration as cal
    from repro.util.tables import Table

    table = Table(
        ["backend", "wg size", "waves/wg", "resident wgs", "waves", "occupancy",
         "limiter"],
        title="CU occupancy implied by Table 3 codegen (wgr/lds)",
    )
    for name in ("hip", "julia"):
        result = occupancy_for(name)
        table.add_row(
            [name, get_backend(name).workgroup_size, result.waves_per_workgroup,
             result.resident_workgroups, f"{result.resident_waves}/{result.max_waves}",
             f"{result.occupancy*100:.0f}%", result.limiter]
        )
    calibrated = cal.JULIA_CODEGEN_EFFICIENCY / cal.HIP_CODEGEN_EFFICIENCY
    lines = [table.render()]
    lines.append(
        f"occupancy ratio (julia/hip): {predicted_efficiency_ratio():.2f}  |  "
        f"calibrated efficiency ratio: {calibrated:.2f}"
    )
    return "\n".join(lines)
