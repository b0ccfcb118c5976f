"""The Frontier machine description (paper Table 1).

Every constant below is copied from Table 1 of the paper (or the cited
TOP500 entry) and is consumed by the GPU, network, and file-system
performance models. Nothing in this module measures anything; it is the
single authoritative record of the modeled hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.units import GB, TB, GiB


@dataclass(frozen=True)
class GcdSpec:
    """One Graphics Compute Die of an AMD MI250x.

    Frontier exposes each MI250x as two GCDs; the paper runs one MPI
    process per GCD and calls a GCD a "GPU" throughout.
    """

    name: str = "MI250x GCD"
    hbm_bytes: int = 64 * GiB
    #: Peak HBM2E bandwidth per GCD (Table 1: 1,600 GB/s per GCD).
    hbm_peak_bytes_per_s: float = 1600 * GB
    #: TCC (L2) capacity per GCD; drives the stencil working-set model.
    tcc_bytes: int = 8 * (1 << 20)
    #: Cache line size used by the TCC model.
    cache_line_bytes: int = 64
    #: Max threads (workitems) per dimension in a 3D launch.
    max_workitems_per_dim: int = 1024
    #: Max workitems per workgroup.
    max_workgroup_size: int = 1024
    #: GPU clock used only to convert counter samples to rates.
    clock_hz: float = 1.7e9


@dataclass(frozen=True)
class NodeSpec:
    """One Frontier compute node (Table 1)."""

    cpu: str = "AMD EPYC 7A53"
    cpu_cores: int = 64
    ddr_bytes: int = 512 * GiB
    ddr_peak_bytes_per_s: float = 205 * GB
    gpus_per_node: int = 4
    gcds_per_node: int = 8
    gcd: GcdSpec = field(default_factory=GcdSpec)
    #: GPU-to-GPU Infinity Fabric bandwidth (Table 1: 50-100 GB/s).
    gpu_gpu_bytes_per_s: float = 50 * GB
    #: GPU-to-CPU Infinity Fabric bandwidth (Table 1: 36 GB/s).
    gpu_cpu_bytes_per_s: float = 36 * GB
    #: Injection bandwidth of the Slingshot NIC per node (4x 25 GB/s).
    nic_bytes_per_s: float = 100 * GB
    #: Slingshot NICs per node (the 100 GB/s above is their aggregate);
    #: 8 ranks share these 4 ports, the contention the virtual-SPMD
    #: ``nic_contention`` mode models as a 4-server FIFO queue per node.
    nics_per_node: int = 4


@dataclass(frozen=True)
class FileSystemSpec:
    """Lustre Orion (Table 1)."""

    name: str = "Lustre Orion"
    capacity_bytes: int = 679 * 10**15
    metadata_nodes: int = 40
    oss_nodes: int = 450
    peak_write_bytes_per_s: float = 5.5 * TB
    peak_read_bytes_per_s: float = 4.5 * TB


@dataclass(frozen=True)
class SoftwareStack:
    """Software versions used in the study (Table 1)."""

    julia: str = "1.9.2"
    amdgpu_jl: str = "0.4.15"
    rocm: str = "5.4.0"
    mpi_jl: str = "0.20.12"
    cray_mpich: str = "8.1.23"
    adios2_jl: str = "1.2.1"
    adios2: str = "2.8.3"


@dataclass(frozen=True)
class MachineSpec:
    """A whole machine: nodes + file system + software stack."""

    name: str = "Frontier"
    nodes: int = 9408
    node: NodeSpec = field(default_factory=NodeSpec)
    filesystem: FileSystemSpec = field(default_factory=FileSystemSpec)
    software: SoftwareStack = field(default_factory=SoftwareStack)
    hpl_eflops: float = 1.194

    @property
    def total_gcds(self) -> int:
        return self.nodes * self.node.gcds_per_node

    def nodes_for_ranks(self, nranks: int, *, ranks_per_node: int | None = None) -> int:
        """Number of nodes a job of ``nranks`` (1 rank per GCD) occupies."""
        per_node = ranks_per_node or self.node.gcds_per_node
        if nranks <= 0:
            raise ValueError("nranks must be positive")
        return -(-nranks // per_node)  # ceil division

    def describe(self) -> str:
        """Render the Table 1 summary."""
        from repro.util.tables import Table
        from repro.util.units import format_bytes, format_bandwidth

        t = Table(["Characteristic", "Value"], title=f"{self.name} characteristics")
        n = self.node
        fs = self.filesystem
        sw = self.software
        rows = [
            ("Nodes", f"{self.nodes:,}"),
            ("CPU", n.cpu),
            ("Cores", n.cpu_cores),
            ("CPU Memory", format_bytes(n.ddr_bytes, binary=True)),
            ("CPU Bandwidth", format_bandwidth(n.ddr_peak_bytes_per_s)),
            ("GPU", f"{n.gpus_per_node}x AMD MI250X ({n.gcds_per_node}x GCDs)"),
            ("GPU Memory", format_bytes(n.gcd.hbm_bytes, binary=True) + " per GCD"),
            ("GPU Bandwidth", format_bandwidth(n.gcd.hbm_peak_bytes_per_s) + " per GCD"),
            ("GPU-to-GPU", format_bandwidth(n.gpu_gpu_bytes_per_s) + " Infinity Fabric"),
            ("GPU-to-CPU", format_bandwidth(n.gpu_cpu_bytes_per_s) + " Infinity Fabric"),
            ("File system", fs.name),
            ("FS capacity", format_bytes(fs.capacity_bytes)),
            ("FS nodes", f"{fs.metadata_nodes} metadata, {fs.oss_nodes} OSS"),
            ("FS write speed", format_bandwidth(fs.peak_write_bytes_per_s)),
            ("FS read speed", format_bandwidth(fs.peak_read_bytes_per_s)),
            ("Julia", sw.julia),
            ("AMDGPU.jl", sw.amdgpu_jl),
            ("ROCm", sw.rocm),
            ("MPI.jl", sw.mpi_jl),
            ("Cray-MPICH", sw.cray_mpich),
            ("ADIOS2.jl", sw.adios2_jl),
            ("ADIOS2", sw.adios2),
        ]
        for row in rows:
            t.add_row(row)
        return t.render()


#: The machine used throughout the paper's evaluation.
FRONTIER = MachineSpec()


def extrapolated_machine(base: MachineSpec = FRONTIER, *, nodes: int) -> MachineSpec:
    """A what-if machine: ``base`` scaled out to ``nodes`` nodes.

    Per-node and per-link characteristics are unchanged — only the node
    count (and the name, so reports show the extrapolation) grows. Used
    by million-rank virtual runs that model a rank space larger than
    the real machine (Frontier tops out at 9,408 x 8 = 75,264 GCDs).
    """
    if nodes <= base.nodes:
        return base
    from dataclasses import replace

    return replace(base, name=f"{base.name}x{nodes}", nodes=nodes)
