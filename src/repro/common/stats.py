"""Session-wide statistics registry.

Mirrors SystemDS's ``-stats`` output: every subsystem increments named
counters, and the benchmark harness reads them to report the paper's
secondary metrics (reused/recycled pointers, evictions, Spark jobs,
cache hits, dangling references cleaned, ...).
"""

from __future__ import annotations

from collections import defaultdict


class Stats:
    """A hierarchical counter registry."""

    def __init__(self) -> None:
        self._counters: dict[str, int] = defaultdict(int)

    def inc(self, name: str, by: int = 1) -> None:
        """Increment counter ``name`` by ``by``."""
        self._counters[name] += by

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented).

        Read-only: never inserts the key, so reporting and gauge
        sampling leave the counter snapshot byte-identical.
        """
        return self._counters.get(name, 0)

    def counters(self) -> dict[str, int]:
        """Snapshot of all counters."""
        return dict(self._counters)

    def reset(self) -> None:
        """Clear all counters."""
        self._counters.clear()

    def merge(self, other: "Stats") -> "Stats":
        """Accumulate ``other``'s counters into this registry.

        Used for multi-session aggregation (``ServerReport.merged``).
        Returns ``self`` for chaining.
        """
        for name, value in other._counters.items():
            self._counters[name] += value
        return self

    def derived_ratios(self) -> dict[str, float]:
        """Derived ratio metrics computed from raw counters.

        Only ratios whose denominator is non-zero are present, so a
        workload that never touched the GPU reports no recycle rate.
        """
        out: dict[str, float] = {}
        probes = self._counters.get(LINEAGE_PROBES, 0)
        if probes:
            out["cache/hit_rate"] = self._counters.get(CACHE_HITS, 0) / probes
        allocs = (self._counters.get(GPU_RECYCLED, 0)
                  + self._counters.get(GPU_MALLOCS, 0))
        if allocs:
            out["gpu/recycle_rate"] = \
                self._counters.get(GPU_RECYCLED, 0) / allocs
        spills = self._counters.get(CACHE_SPILLS, 0)
        if spills:
            out["cache/restore_rate"] = \
                self._counters.get(CACHE_RESTORES, 0) / spills
        # server ratios render under the same ``server/`` heading as the
        # raw counters; gated on sessions_attached so single-session
        # runs never grow a server section
        if self._counters.get(SERVER_SESSIONS, 0):
            if probes:
                out["server/cross_session_hit_rate"] = \
                    self._counters.get(SERVER_CROSS_HITS, 0) / probes
            steps = self._counters.get(SERVER_STEPS, 0)
            if steps:
                out["server/backpressure_rate"] = \
                    self._counters.get(SERVER_BACKPRESSURE, 0) / steps
        return out

    def report(self) -> str:
        """Human-readable report, grouped by subsystem prefix.

        Names follow the ``subsystem/metric`` convention; counters and
        derived ratios (:meth:`derived_ratios`) of the same subsystem
        are reported together under one header instead of interleaving
        flat sorted lists.  The name column widens to fit
        the longest name instead of truncating alignment at 42 chars.
        """
        ratios = self.derived_ratios()
        names = [*self._counters, *ratios]
        width = max([42, *(len(n) for n in names)])
        groups: dict[str, list[str]] = {}
        for name in sorted(self._counters):
            groups.setdefault(_prefix(name), []).append(
                f"{name:<{width}s} {self._counters[name]:>12d}"
            )
        for name in sorted(ratios):
            groups.setdefault(_prefix(name), []).append(
                f"{name:<{width}s} {ratios[name]:>12.4f}"
            )
        lines = ["=== statistics ==="]
        for prefix in sorted(groups):
            lines.append(f"-- {prefix} --")
            lines.extend(groups[prefix])
        return "\n".join(lines)


def _prefix(name: str) -> str:
    """Subsystem prefix of a metric name (text before the first ``/``)."""
    return name.split("/", 1)[0] if "/" in name else "misc"


# Well-known counter names (kept in one place to avoid typos).
LINEAGE_TRACED = "lineage/items_traced"
LINEAGE_PROBES = "cache/probes"
CACHE_HITS = "cache/hits"
CACHE_MISSES = "cache/misses"
CACHE_PUTS = "cache/puts"
CACHE_EVICTIONS = "cache/evictions"
CACHE_DELAYED = "cache/delayed_entries"
CACHE_SPILLS = "cache/disk_spills"
CACHE_RESTORES = "cache/disk_restores"
FUNC_HITS = "cache/function_hits"
SPARK_JOBS = "spark/jobs"
SPARK_TASKS = "spark/tasks"
SPARK_ACTION_REUSE = "spark/actions_reused"
SPARK_RDD_REUSE = "spark/rdds_reused"
SPARK_RDD_PERSISTED = "spark/rdds_persisted"
SPARK_RDD_UNPERSISTED = "spark/rdds_unpersisted"
SPARK_GC_CLEANED = "spark/dangling_cleaned"
SPARK_ASYNC_MATERIALIZE = "spark/async_materializations"
SPARK_BROADCASTS = "spark/broadcasts"
SPARK_SHUFFLE_REUSE = "spark/shuffle_files_reused"
SPARK_PART_EVICTED = "spark/partitions_evicted"
SPARK_PART_SPILLED = "spark/partitions_spilled"
SPARK_PART_RECOMPUTED = "spark/partitions_recomputed"
GPU_MALLOCS = "gpu/cuda_mallocs"
GPU_FREES = "gpu/cuda_frees"
GPU_KERNELS = "gpu/kernels_launched"
GPU_RECYCLED = "gpu/pointers_recycled"
GPU_REUSED = "gpu/pointers_reused"
GPU_SYNCS = "gpu/synchronizations"
GPU_D2H = "gpu/d2h_copies"
GPU_H2D = "gpu/h2d_copies"
GPU_EVICT_D2H = "gpu/evictions_to_host"
GPU_DEFRAGS = "gpu/defragmentations"
PREFETCH_ISSUED = "async/prefetch_issued"
BROADCAST_ISSUED = "async/broadcast_issued"
EVICT_INSTRUCTIONS = "compiler/evict_instructions"
CHECKPOINTS_PLACED = "compiler/checkpoints_placed"
INSTRUCTIONS_EXECUTED = "runtime/instructions_executed"
INSTRUCTIONS_SKIPPED = "runtime/instructions_skipped"
CPU_BYTES_ALLOCATED = "cpu/bytes_allocated"
MEM_RESERVES = "memory/reserves"
MEM_RESERVE_FAILURES = "memory/reserve_failures"
MEM_EVICTIONS = "memory/evictions"
MEM_SPILLS = "memory/spills"
MEM_RESTORES = "memory/restores"
MEM_D2H_AVOIDED = "memory/d2h_transfers_avoided"
MEM_PLAN_RESERVE_FAILURES = "memory/plan_reserve_failures"
MEMPLAN_BLOCKS_PLANNED = "memplan/blocks_planned"
FAULTS_INJECTED = "faults/injected"
FAULTS_RECOVERED = "faults/recovered"
FAULT_SPARK_TASK_RETRIES = "faults/spark_task_retries"
FAULT_EXECUTORS_LOST = "faults/executors_lost"
FAULT_SHUFFLE_INVALIDATED = "faults/shuffle_files_invalidated"
FAULT_PARTITIONS_DROPPED = "faults/cached_partitions_dropped"
FAULT_GPU_ALLOC_RETRIES = "faults/gpu_alloc_retries"
FAULT_FED_RETRIES = "faults/fed_retries"
FAULT_QUORUM_DEGRADED = "faults/fed_rounds_degraded"
FAULT_SPILL_IO_ERRORS = "faults/spill_io_errors"
FAULT_RESTORE_IO_ERRORS = "faults/restore_io_errors"
FAULT_CACHE_ENTRIES_LOST = "faults/cache_entries_lost"
FAULT_LINEAGE_RECOMPUTES = "faults/lineage_recomputes"
SERVER_SESSIONS = "server/sessions_attached"
SERVER_REQUESTS = "server/requests_submitted"
SERVER_STEPS = "server/scheduler_steps"
SERVER_CROSS_HITS = "server/cross_session_hits"
SERVER_DEDUP_BYTES = "server/dedup_bytes_saved"
SERVER_SCOPED_KEYS = "server/session_scoped_keys"
SERVER_ADMITTED = "server/blocks_admitted"
SERVER_BACKPRESSURE = "server/backpressure_events"
SERVER_QUOTA_REFUSALS = "server/quota_refusals"
