"""Every Frontier-calibrated constant of the performance models.

The models themselves are structural (roofline, working-set cache
analysis, LogGP, OSS striping); the constants below pin the free
parameters to what the paper measured. Each constant cites its source
table/figure. Changing a constant re-shapes the reproduced experiments
but never changes functional results (solver output, file contents).

We deliberately do NOT tune models to match paper values to the last
digit: the targets are the paper's *shapes* (who wins, by what factor,
where behaviour changes) as listed in DESIGN.md section 3.
"""

from __future__ import annotations

from repro.util.units import GB

# ---------------------------------------------------------------------------
# GPU codegen efficiency (Tables 2 and 3)
# ---------------------------------------------------------------------------

#: Fraction of peak HBM bandwidth (1,600 GB/s per GCD, Table 1) the
#: hand-written HIP stencil sustains. Derived from Table 3: the HIP
#: kernel moves 25.08 + 8.35 GB in 28.74 ms -> ~1,163 GB/s measured; our
#: traffic model predicts 34.3 GB for the same kernel, so the efficiency
#: that reproduces the measured duration is 34.3 GB / 28.74 ms / 1600.
HIP_CODEGEN_EFFICIENCY = 0.746

#: Same quantity for AMDGPU.jl-generated code (Table 3: 54.03 ms for the
#: 1-variable no-random kernel). The paper attributes the ~1.9x gap to
#: codegen below the IR level (Section 5.1): the IR shows no extra
#: memory ops, but the Julia kernel allocates LDS and scratch.
JULIA_CODEGEN_EFFICIENCY = 0.397

#: Extra slowdown of the Julia application kernel from in-kernel RNG:
#: Table 3 gives 111.07 ms (2-variable with rand) vs 2 x 54.03 ms
#: (no-random), a 2.8% penalty.
JULIA_RAND_PENALTY = 0.973

#: Workgroup sizes rocprof reported per backend (Table 3, "wgr").
HIP_WORKGROUP_SIZE = 256
JULIA_WORKGROUP_SIZE = 512

#: LDS and scratch per workgroup/workitem for Julia codegen (Table 3,
#: "lds"/"scr"; zero for HIP).
JULIA_LDS_BYTES = 29_184
JULIA_SCRATCH_BYTES = 8_192

# ---------------------------------------------------------------------------
# JIT compilation (Figure 7)
# ---------------------------------------------------------------------------

#: Figure 7: over a 20-step window at 1024^3 the first JIT-compiled run
#: sustains ~8% of the optimized bandwidth (a ~12.5x cost). With the
#: optimized application step at ~111 ms, the implied one-time compile
#: cost is ~ (12.5 - 1) x 20 x 0.111 s ~ 25.5 s. We split it into a base
#: plus a per-IR-line term so bigger kernels compile slower.
JULIA_BASE_COMPILE_SECONDS = 22.0
JULIA_COMPILE_SECONDS_PER_IR_LINE = 0.05

#: Relative spread of compile times across 4,096 GCDs (Figure 7 shows a
#: distribution, not a spike): lognormal sigma.
JIT_COMPILE_SIGMA = 0.10

#: Warm start from a persistent compilation cache (the pkgimage /
#: precompilation arc Julia landed after the paper; our
#: ``repro.gpu.jitcache``): the first launch loads a compiled kernel
#: instead of compiling. Loading a few-hundred-MB pkgimage from the
#: parallel filesystem costs order 0.1 s — ~200x below the ~22 s
#: compile — which closes the Fig. 7 cold/warm gap to ~1x.
JIT_WARM_LOAD_SECONDS = 0.12

#: Per-device spread of steady-state kernel bandwidth (Figure 7's
#: "optimized" distribution width).
KERNEL_BANDWIDTH_SIGMA = 0.015

# ---------------------------------------------------------------------------
# rocprof counter normalization (Table 3)
# ---------------------------------------------------------------------------

#: Table 3 reports TCC_HIT/TCC_MISS in "M" at magnitudes ~48x below the
#: full line-transaction counts our cache model produces for a 1024^3
#: kernel (rocprof samples a subset of TCC channels). This divisor only
#: rescales *reported* counter magnitudes; hit/miss ratios come straight
#: from the model.
ROCPROF_COUNTER_SAMPLE_DIVISOR = 48

# ---------------------------------------------------------------------------
# Network performance model (Figure 6)
# ---------------------------------------------------------------------------

#: LogGP latency (seconds) for inter-node (Slingshot) and intra-node
#: (Infinity Fabric / shared memory) point-to-point messages.
NET_LATENCY_INTER_S = 2.0e-6
NET_LATENCY_INTRA_S = 0.8e-6

#: Effective per-rank large-message bandwidth. Each Frontier node has
#: 4 x 25 GB/s NICs shared by 8 ranks (Table 1 / Slingshot specs).
NET_BW_INTER_BYTES_PER_S = 12.5 * GB
NET_BW_INTRA_BYTES_PER_S = 50 * GB  # Infinity Fabric GPU-GPU, Table 1

#: Per-rank per-step noise model calibrated to Figure 6: the paper sees
#: 2-3% wall-clock variability up to 512 ranks and 12-15% at 4,096.
#: sigma(P) = NOISE_SIGMA_BASE + NOISE_SIGMA_CONGESTION *
#:            max(0, log8(P / NOISE_CONGESTION_ONSET_RANKS))
NOISE_SIGMA_BASE = 0.004
NOISE_SIGMA_CONGESTION = 0.0145
NOISE_CONGESTION_ONSET_RANKS = 512

#: Ghost-exchange pack/unpack per-byte CPU cost (strided MPI_Type_vector
#: assembly on the host; the paper keeps exchanges in CPU memory,
#: Section 3.3). Order of DDR copy bandwidth.
PACK_BYTES_PER_S = 100 * GB

#: The paper's 32,768-GPU attempt hit "unpredictable failures ... at
#: the underlying MPI layers during the ghost cell exchange stage"
#: while 4,096 GPUs ran reliably. Modeled as a per-message failure
#: probability that turns on past the reliable scale: calibrated so a
#: 20-step run at 4,096 ranks survives with probability > 0.99 while
#: 32,768 ranks almost surely fails within 20 steps.
MPI_FAILURE_ONSET_RANKS = 4096
MPI_FAILURE_PER_MESSAGE = 6.0e-8

# ---------------------------------------------------------------------------
# Lustre / parallel I/O model (Figure 8)
# ---------------------------------------------------------------------------

#: Sustained BP5 write bandwidth of one aggregating node (one subfile
#: per node, Section 5.3). Calibrated so that 512 nodes reach the
#: paper's 434 GB/s *after* contention derating and the slowest-node
#: jitter that dictates the job's write time:
#: 512 nodes x 1.15 GB/s x eff(512) / straggler(~1.29) ~ 434 GB/s.
LUSTRE_NODE_WRITE_BW_BYTES_PER_S = 1.15 * GB

#: Slow contention growth with node count (OSS sharing, metadata).
#: efficiency(N) = 1 / (1 + LUSTRE_CONTENTION_COEF * log2(N))
LUSTRE_CONTENTION_COEF = 0.006

#: Lognormal sigma of per-write wall-clock jitter ("real-time file
#: system usage", Section 5.3).
LUSTRE_WRITE_SIGMA = 0.08

#: Fixed per-write open/metadata cost in seconds (40 Lustre MDS nodes).
LUSTRE_METADATA_SECONDS = 0.35

# ---------------------------------------------------------------------------
# Reference values straight from the paper, used by EXPERIMENTS.md and
# the benchmark reports for side-by-side comparison (never by models).
# ---------------------------------------------------------------------------

PAPER_TABLE2 = {
    # kernel: (effective GB/s, total GB/s)
    "julia_2var": (312.0, 570.0),
    "julia_1var_norand": (312.0, 625.0),
    "hip_1var": (599.0, 1163.0),
    "peak": (1600.0, 1600.0),
}

PAPER_TABLE3 = {
    # kernel: dict of rocprof metrics
    "hip_1var": {
        "wgr": 256, "lds": 0, "scr": 0,
        "fetch_gb": 25.08, "write_gb": 8.35,
        "tcc_hit_m": 9.14, "tcc_miss_m": 8.36,
        "avg_duration_ms": 28.74,
    },
    "julia_1var_norand": {
        "wgr": 512, "lds": 29_184, "scr": 8_192,
        "fetch_gb": 25.40, "write_gb": 8.38,
        "tcc_hit_m": 10.80, "tcc_miss_m": 8.69,
        "avg_duration_ms": 54.03,
    },
    "julia_2var": {
        "wgr": 512, "lds": 29_184, "scr": 8_192,
        "fetch_gb": 50.80, "write_gb": 16.78,
        "tcc_hit_m": 24.60, "tcc_miss_m": 17.19,
        "avg_duration_ms": 111.07,
    },
}

PAPER_FIG6_VARIABILITY = {
    # ranks: (low, high) fractional spread of per-process wall-clock
    512: (0.02, 0.03),
    4096: (0.12, 0.15),
}

PAPER_FIG7 = {
    "jit_bandwidth_fraction": 0.08,  # JIT run ~8% of optimized bandwidth
    "jit_cost_factor": 12.5,
}

PAPER_FIG8 = {
    "max_write_bandwidth_gb_s": 434.0,
    "peak_fraction": 0.08,  # 8% of the 5.5 TB/s filesystem peak
}
