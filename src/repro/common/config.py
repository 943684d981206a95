"""Configuration for the MEMPHIS reproduction.

Defaults follow the paper's experimental setting (§6.1, Table 2), scaled
down by :data:`SCALE` so that simulated experiments run in seconds on a
laptop while preserving all memory-pressure and bandwidth ratios.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.runtime import current as current_runtime


GB = 1024**3
MB = 1024**2
KB = 1024

#: Global downscaling factor applied to the paper's memory budgets.  The
#: paper uses 256 GB nodes; dividing budgets by this factor keeps every
#: ratio (cache : operation memory : device memory) intact while letting the
#: simulation allocate real numpy arrays.
SCALE = 1024


class ReuseMode(enum.Enum):
    """Which reuse capability is enabled (maps to the paper's baselines)."""

    NONE = "none"  #: Base — no tracing, no reuse.
    TRACE_ONLY = "trace"  #: lineage tracing enabled, no cache probes.
    PROBE_ONLY = "probe"  #: tracing + probing, but nothing is ever cached.
    FULL = "full"  #: MEMPHIS multi-level, multi-backend reuse.
    LOCAL_ONLY = "local"  #: LIMA — eager caching of local CPU results only.
    COARSE_ONLY = "coarse"  #: HELIX — function-level (coarse) reuse only.
    OPERATOR_ONLY = "fine"  #: MPH-F — fine-grained only, no function reuse.

    @property
    def probes(self) -> bool:
        """Whether REUSE probes run in this mode (ablation axis, §6.2)."""
        return self._value_ in _PROBE_MODES

    @property
    def puts(self) -> bool:
        """Whether PUT admission runs in this mode (ablation axis, §6.2)."""
        return self._value_ in _PUT_MODES


#: by value: hashing a member is a Python-level call, its value's is not
_PUT_MODES = frozenset([mode.value for mode in (
    ReuseMode.FULL, ReuseMode.LOCAL_ONLY, ReuseMode.OPERATOR_ONLY)])
_PROBE_MODES = _PUT_MODES | {ReuseMode.PROBE_ONLY.value}


class EvictionPolicyName(enum.Enum):
    """Cache eviction policy selector (Eq. 1 plus ablation baselines)."""

    COST_SIZE = "cost_size"  #: paper Eq. 1 / Eq. 2 (default).
    LRU = "lru"
    LRC = "lrc"  #: least reference count (DAG-aware Spark baseline).
    MRD = "mrd"  #: most reference distance.


class StorageLevel(enum.Enum):
    """Spark RDD persistence levels (subset used by the paper)."""

    MEMORY_ONLY = "MEMORY_ONLY"
    MEMORY_AND_DISK = "MEMORY_AND_DISK"
    DISK_ONLY = "DISK_ONLY"


@dataclass
class SparkConfig:
    """Spark cluster simulator parameters (paper §6.1, Table 2)."""

    num_executors: int = 8
    cores_per_executor: int = 24
    executor_memory: int = 230 * GB // SCALE
    driver_memory: int = 38 * GB // SCALE
    #: unified region fraction (Spark default 0.6 of heap).
    unified_memory_fraction: float = 0.6
    #: of the unified region, the half reserved for storage (cached RDDs).
    storage_fraction: float = 0.5
    #: host-to-cluster bandwidth, Table 2: 15 GB/s.
    bandwidth_bytes_per_s: float = 15 * GB
    #: per-task scheduling overhead (s) — models DAGScheduler latency.
    task_overhead_s: float = 2e-3
    #: per-job submission overhead (s).
    job_overhead_s: float = 10e-3
    #: per-byte cost of a shuffle (read+write, both sides).
    shuffle_bytes_per_s: float = 4 * GB
    #: per-byte cost of executor-local disk for spilled partitions.
    disk_bytes_per_s: float = 1 * GB
    #: default rows per partition block (squared blocking in SystemDS).
    block_size_rows: int = 1024
    broadcast_chunk_bytes: int = 4 * MB
    #: effective per-core executor compute throughput.
    executor_flops_per_s: float = 60e9

    @property
    def storage_memory(self) -> int:
        """Bytes of storage region per executor."""
        return int(
            self.executor_memory
            * self.unified_memory_fraction
            * self.storage_fraction
        )

    @property
    def execution_memory(self) -> int:
        """Bytes of execution region per executor."""
        return int(
            self.executor_memory
            * self.unified_memory_fraction
            * (1.0 - self.storage_fraction)
        )


@dataclass
class GpuConfig:
    """GPU device simulator parameters (NVIDIA A40-like, §6.1)."""

    device_memory: int = 48 * GB // SCALE
    #: pageable host-to-device bandwidth, Table 2: 6.1 GB/s.
    h2d_bandwidth_bytes_per_s: float = 6.1 * GB
    d2h_bandwidth_bytes_per_s: float = 6.1 * GB
    #: effective device compute throughput for dense FLOPs.
    flops_per_s: float = 37e12
    #: device memory bandwidth for memory-bound kernels.
    mem_bandwidth_bytes_per_s: float = 696 * GB
    #: fixed cost of cudaMalloc (device sync + driver call); calibrated
    #: so alloc+free is ~4.6x a small kernel's runtime (Fig. 2(d)).
    malloc_latency_s: float = 8e-6
    #: fixed cost of cudaFree (forces a device synchronization).
    free_latency_s: float = 15e-6
    #: fixed kernel launch latency.
    kernel_launch_s: float = 5e-6
    #: allocation alignment (CUDA allocates in 512 B granules).
    alignment: int = 512
    #: minimum output cells before an op is worth offloading to the GPU.
    min_cells: int = 512
    #: eviction order of the unified GPU memory manager's free lists
    #: (the ``GPU`` memory region); the default ``cost_size`` is the
    #: paper's Eq. 2 pointer scoring.
    policy: EvictionPolicyName = EvictionPolicyName.COST_SIZE


@dataclass
class CpuConfig:
    """Local CPU backend parameters."""

    #: effective CPU throughput for dense FLOPs (multi-threaded BLAS).
    flops_per_s: float = 1.5e12
    mem_bandwidth_bytes_per_s: float = 100 * GB
    #: fixed per-instruction interpretation overhead (s) — the paper's
    #: Fig. 11(a) shows this dominates for tiny inputs.
    instruction_overhead_s: float = 3e-6
    #: lineage tracing overhead per instruction (Fig. 11: ~1.3x base).
    trace_overhead_s: float = 1e-6
    #: cache probing overhead per instruction (Fig. 11: ~2x base).
    probe_overhead_s: float = 2e-6
    #: operation memory: ops estimated above this go to Spark (paper: 7 GB).
    operation_memory_bytes: int = 7 * GB // SCALE
    disk_bytes_per_s: float = 1 * GB


@dataclass
class CacheConfig:
    """Lineage cache configuration (paper §6.1 memory configurations)."""

    #: driver-side lineage cache budget (paper: 5 GB).
    driver_cache_bytes: int = 5 * GB // SCALE
    #: fraction of Spark storage memory usable for reuse (paper: 80%).
    spark_cache_fraction: float = 0.8
    #: delay factor n — defer caching until the n-th hit (§5.2); tuned
    #: per block by the automatic parameter tuning rewrite.
    delay_factor: int = 1
    #: number of cache misses on an unmaterialized RDD before an async
    #: count() job materializes it (§4.1, default three).
    async_materialize_after_misses: int = 3
    policy: EvictionPolicyName = EvictionPolicyName.COST_SIZE
    #: eviction order of the Spark tier of the lineage cache (the
    #: ``SP_CACHE`` region); ``None`` inherits ``policy``.
    spark_policy: EvictionPolicyName | None = None
    #: disable all eviction (the 40%INF setting of Fig. 11(b)).
    unlimited: bool = False
    #: spill evicted driver-cache entries to local disk instead of
    #: dropping them ("disk-evicted binaries", §3.3); entries whose
    #: compute-cost-to-size ratio is below the write-cost break-even are
    #: still dropped.
    spill_to_disk: bool = True
    #: local-disk budget for spilled cache binaries.
    disk_cache_bytes: int = 100 * GB // SCALE


@dataclass
class MemphisConfig:
    """Top-level configuration of a session."""

    reuse_mode: ReuseMode = ReuseMode.FULL
    spark: SparkConfig = field(default_factory=SparkConfig)
    gpu: GpuConfig = field(default_factory=GpuConfig)
    cpu: CpuConfig = field(default_factory=CpuConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    gpu_enabled: bool = False
    spark_enabled: bool = True
    #: compiler switches (all on for MPH; Base-A enables only async ops).
    enable_async_ops: bool = True
    enable_checkpoint_rewrite: bool = True
    enable_eviction_injection: bool = True
    enable_auto_tuning: bool = True
    enable_max_parallelize: bool = True
    #: GPU allocator mode: "malloc" | "pool" | "memphis"; None derives it
    #: from the reuse mode (Base -> malloc, MEMPHIS -> memphis).
    gpu_memory_mode: str | None = None

    def __post_init__(self) -> None:
        # The current runtime context's ``configure`` hook (harness
        # --policy, the ablations, the feature matrix) reaches configs
        # the experiments build internally, without threading a
        # parameter through every classmethod constructor.
        # The constructors below pass their system's settings as
        # arguments, so the hook always has the last word.
        configure = current_runtime().configure
        if configure is not None:
            configure(self)

    @classmethod
    def base(cls, **kw) -> "MemphisConfig":
        """Paper baseline *Base*: no reuse, no MEMPHIS compiler passes."""
        settings = dict(
            reuse_mode=ReuseMode.NONE,
            enable_async_ops=False,
            enable_checkpoint_rewrite=False,
            enable_eviction_injection=False,
            enable_auto_tuning=False,
            enable_max_parallelize=False,
        )
        return cls(**(settings | kw))

    @classmethod
    def base_async(cls, **kw) -> "MemphisConfig":
        """Paper baseline *Base-A*: async operators, still no reuse."""
        return cls.base(enable_async_ops=True, enable_max_parallelize=True,
                        **kw)

    @classmethod
    def lima(cls, **kw) -> "MemphisConfig":
        """Paper baseline *LIMA*: eager local-only fine-grained reuse."""
        return cls.base(reuse_mode=ReuseMode.LOCAL_ONLY, **kw)

    @classmethod
    def helix(cls, **kw) -> "MemphisConfig":
        """Paper baseline *HELIX*: coarse-grained (function-level) reuse."""
        return cls.base(reuse_mode=ReuseMode.COARSE_ONLY, **kw)

    @classmethod
    def memphis(cls, **kw) -> "MemphisConfig":
        """Full MEMPHIS (MPH): all reuse and compiler optimizations."""
        kw.setdefault("reuse_mode", ReuseMode.FULL)
        return cls(**kw)

    @classmethod
    def memphis_no_async(cls, **kw) -> "MemphisConfig":
        """MPH-NA: full reuse but without asynchronous operators."""
        return cls.memphis(enable_async_ops=False,
                           enable_max_parallelize=False, **kw)

    @classmethod
    def memphis_fine_only(cls, **kw) -> "MemphisConfig":
        """MPH-F: operator-at-a-time reuse, multi-level reuse disabled."""
        return cls.memphis(reuse_mode=ReuseMode.OPERATOR_ONLY, **kw)

    @classmethod
    def server_session(cls, **kw) -> "MemphisConfig":
        """Per-session config for the multi-tenant server (``repro.server``).

        Full MEMPHIS reuse.  Server sessions also plan every block, but
        not because of this config: a session attached to a shared
        substrate always plans, since its planned peaks are what the
        admission gate (``SessionContext.admit``) checks.
        """
        return cls.memphis(**kw)
