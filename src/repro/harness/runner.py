"""Experiment runner: executes (workload x system x scale) grids.

One ``run_*`` function per paper table/figure; each returns the raw
results plus a formatted table whose rows/series match what the paper
reports.  The benchmark suite under ``benchmarks/`` calls these.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.common.config import GB, MB, EvictionPolicyName, MemphisConfig
from repro.common.runtime import scope
from repro.core.session import Session
from repro.harness.report import (
    check_metrics_agree,
    format_table,
    results_table,
    speedup_series,
)
from repro.workloads.base import WorkloadResult
from repro.workloads.clean import run_clean
from repro.workloads.en2de import run_en2de
from repro.workloads.hband import run_hband
from repro.workloads.hcv import run_hcv
from repro.workloads.hdrop import run_hdrop
from repro.workloads.micro import (
    run_fig2c,
    run_fig2d,
    run_fig12b,
    run_reuse_overhead,
)
from repro.workloads.pnmf_wl import run_pnmf
from repro.workloads.tlvis import run_tlvis


class ExperimentResult:
    """Raw grid results + formatted report for one experiment."""

    def __init__(self, experiment: str, grid: dict, table: str) -> None:
        self.experiment = experiment
        self.grid = grid
        self.table = table

    def __str__(self) -> str:
        return self.table

    def workloads(self) -> list[WorkloadResult]:
        """The :class:`WorkloadResult` leaves of the grid, in grid order
        (grids nest dicts; fig2d-style raw-dict cells contribute none)."""
        def leaves(node) -> list[WorkloadResult]:
            if isinstance(node, WorkloadResult):
                return [node]
            if isinstance(node, dict):
                return [w for value in node.values() for w in leaves(value)]
            return []
        return leaves(self.grid)


def _grid(runner: Callable[..., WorkloadResult], systems: Sequence[str],
          xs: Sequence, **kw) -> dict:
    out: dict = {}
    for x in xs:
        out[x] = {system: runner(system, x, **kw) for system in systems}
    return out


# ------------------------------------------------------------ experiments

def run_experiment_fig2c() -> ExperimentResult:
    """E1 (Fig. 2(c)): eager vs lazy RDD caching."""
    settings = ["NoCache", "Eager", "MEMPHIS"]
    results = {s: run_fig2c(s) for s in settings}
    rows = [
        [s, results[s].elapsed * 1000,
         results[s].counter("spark/jobs"),
         results[s].counter("spark/rdds_reused")]
        for s in settings
    ]
    table = format_table(
        ["setting", "time [ms]", "jobs", "rdds_reused"], rows,
        title="Fig 2(c): eager vs lazy RDD caching (12K-op analog)",
    )
    return ExperimentResult("fig2c", {0: results}, table)


def run_experiment_fig2d() -> ExperimentResult:
    """E2 (Fig. 2(d)): GPU alloc/copy/compute breakdown."""
    out = run_fig2d(epochs=5, batches=100)
    rows = [
        ["compute", out["compute_s"] * 1000, 1.0],
        ["alloc+free", out["alloc_free_s"] * 1000,
         out["alloc_free_over_compute"]],
        ["copy", out["copy_s"] * 1000, out["copy_over_compute"]],
    ]
    table = format_table(
        ["component", "time [ms]", "x over compute"], rows,
        title="Fig 2(d): forced per-kernel allocate/copy/free overhead",
    )
    return ExperimentResult("fig2d", {0: out}, table)


def run_experiment_fig11a(iterations: int = 100) -> ExperimentResult:
    """E3 (Fig. 11(a)): tracing/probing overhead vs input size."""
    sizes = [800, 8 * 1024, 80 * 1024, 800 * 1024, 8 * 1024 * 1024]
    rows = []
    grid: dict = {}
    for size in sizes:
        cells = {
            "Base": run_reuse_overhead("Base", size, iterations),
            "Trace": run_reuse_overhead("Trace", size, iterations),
            "Probe": run_reuse_overhead("Probe", size, iterations),
            "Reuse20": run_reuse_overhead("Reuse", size, iterations, 0.2),
            "Reuse40": run_reuse_overhead("Reuse", size, iterations, 0.4),
            "Reuse80": run_reuse_overhead("Reuse", size, iterations, 0.8),
        }
        grid[size] = cells
        base = cells["Base"].elapsed
        rows.append([
            _size_label(size),
            base * 1000,
            cells["Trace"].elapsed / base,
            cells["Probe"].elapsed / base,
            base / cells["Reuse20"].elapsed,
            base / cells["Reuse40"].elapsed,
            base / cells["Reuse80"].elapsed,
        ])
    table = format_table(
        ["input", "Base [ms]", "Trace x", "Probe x",
         "20% speedup", "40% speedup", "80% speedup"],
        rows, title="Fig 11(a): reuse overhead vs input size",
    )
    return ExperimentResult("fig11a", grid, table)


def run_experiment_fig11b() -> ExperimentResult:
    """E4 (Fig. 11(b)): overhead vs instruction count + 40%INF."""
    size = 8 * 1024 * 1024
    counts = [100, 200, 300, 400, 500]
    rows = []
    grid: dict = {}
    for iters in counts:
        cells = {
            "Base": run_reuse_overhead("Base", size, iters),
            "Trace": run_reuse_overhead("Trace", size, iters),
            "Probe": run_reuse_overhead("Probe", size, iters),
            "Reuse20": run_reuse_overhead("Reuse", size, iters, 0.2),
            "Reuse40": run_reuse_overhead("Reuse", size, iters, 0.4),
            "Reuse40INF": run_reuse_overhead(
                "Reuse", size, iters, 0.4, unlimited=True
            ),
        }
        grid[iters] = cells
        base = cells["Base"].elapsed
        rows.append([
            iters * 13,  # ~13 instructions per iteration
            base * 1000,
            cells["Probe"].elapsed / base,
            base / cells["Reuse20"].elapsed,
            base / cells["Reuse40"].elapsed,
            base / cells["Reuse40INF"].elapsed,
        ])
    table = format_table(
        ["#insts", "Base [ms]", "Probe x", "20% speedup",
         "40% speedup", "40%INF speedup"],
        rows, title="Fig 11(b): overhead vs instruction count",
    )
    return ExperimentResult("fig11b", grid, table)


def run_experiment_fig12a() -> ExperimentResult:
    """E5 (Fig. 12(a)): driver cache sizes vs reuse potential."""
    cache_sizes = {
        "900MB": 900 * MB // 1024,
        "5GB": 5 * GB // 1024,
        "30GB": 30 * GB // 1024,
    }
    inputs_gb = [2, 4, 6, 8, 10]
    rows = []
    grid: dict = {}
    for gb in inputs_gb:
        size = gb * GB // 1024
        # inputs and cache sizes are scaled by the simulation factor, so
        # fixed overheads scale with them (see scale_overheads)
        base = run_reuse_overhead("Base", size, iterations=100,
                                  overhead_scale=1.0 / 1024.0)
        cells = {"Base": base}
        row: list = [f"{gb}GB", base.elapsed * 1000]
        for label, cache_bytes in cache_sizes.items():
            result = run_reuse_overhead(
                "Reuse", size, iterations=100, reuse_fraction=0.4,
                cache_bytes=cache_bytes, overhead_scale=1.0 / 1024.0,
            )
            cells[label] = result
            row.append(base.elapsed / result.elapsed)
        grid[gb] = cells
        rows.append(row)
    table = format_table(
        ["input", "Base [ms]", "900MB speedup", "5GB speedup",
         "30GB speedup"],
        rows, title="Fig 12(a): cache size vs speedup (40% reuse)",
    )
    return ExperimentResult("fig12a", grid, table)


def run_experiment_fig12b() -> ExperimentResult:
    """E6 (Fig. 12(b)): GPU cache eviction (ensemble CNN scoring)."""
    batch_sizes = [2, 4, 8, 16]
    rows = []
    grid: dict = {}
    for bs in batch_sizes:
        base = run_fig12b("Base", bs)
        cells = {"Base": base}
        row: list = [bs, base.elapsed * 1000]
        for frac in (0.2, 0.4, 0.8):
            result = run_fig12b("MPH", bs, reuse_fraction=frac)
            cells[f"MPH{int(frac * 100)}"] = result
            row.append(base.elapsed / result.elapsed)
        mph = cells["MPH80"]
        row.extend([
            mph.counter("gpu/pointers_recycled"),
            mph.counter("gpu/pointers_reused"),
        ])
        grid[bs] = cells
        rows.append(row)
    table = format_table(
        ["batch", "Base [ms]", "20% speedup", "40% speedup",
         "80% speedup", "recycled", "reused"],
        rows, title="Fig 12(b): GPU eviction under ensemble CNN scoring",
    )
    return ExperimentResult("fig12b", grid, table)


def run_experiment_hcv(sizes=(5, 25, 50, 100)) -> ExperimentResult:
    """E7 (Fig. 13(a)): HCV across input sizes and systems."""
    systems = ["Base", "Base-A", "LIMA", "HELIX", "MPH-NA", "MPH"]
    grid = _grid(run_hcv, systems, sizes)
    for by_system in grid.values():
        assert check_metrics_agree(by_system, rel_tol=1e-6)
    table = results_table(
        {f"{gb}GB": v for gb, v in grid.items()}, "input",
        "Fig 13(a): HCV grid search / cross validation",
        extra_counters=("spark/rdds_reused", "spark/actions_reused"),
    )
    return ExperimentResult("hcv", grid, table)


def run_experiment_pnmf(iteration_counts=(5, 15, 25, 35, 45)) -> ExperimentResult:
    """E8 (Fig. 13(b)): PNMF iteration scaling."""
    systems = ["Base", "LIMA", "MPH"]
    grid = _grid(run_pnmf, systems, iteration_counts)
    table = results_table(
        {f"{it} iters": v for it, v in grid.items()}, "#iterations",
        "Fig 13(b): PNMF (checkpoint placement)",
        extra_counters=("compiler/checkpoints_placed",),
    )
    return ExperimentResult("pnmf", grid, table)


def run_experiment_hband(sizes=(5, 20)) -> ExperimentResult:
    """E9 (Fig. 13(c)): HBAND model search."""
    systems = ["Base", "LIMA", "HELIX", "MPH"]
    grid = _grid(run_hband, systems, sizes)
    table = results_table(
        {f"{gb}GB": v for gb, v in grid.items()}, "input",
        "Fig 13(c): HBAND successive halving + ensemble",
        extra_counters=("spark/rdds_reused", "cache/function_hits"),
    )
    return ExperimentResult("hband", grid, table)


def run_experiment_clean(scale_factors=(12, 40, 80, 120)) -> ExperimentResult:
    """E10 (Fig. 14(a)): CLEAN pipeline enumeration."""
    systems = ["Base", "Base-P", "LIMA", "MPH"]
    grid = _grid(run_clean, systems, scale_factors)
    table = results_table(
        {f"x{sf}": v for sf, v in grid.items()}, "scale",
        "Fig 14(a): CLEAN pipeline enumeration",
        extra_counters=("cache/hits", "cache/evictions"),
    )
    return ExperimentResult("clean", grid, table)


def run_experiment_hdrop(epochs: int = 3) -> ExperimentResult:
    """E11 (Fig. 14(b)): HDROP dropout-rate tuning."""
    systems = ["Base-C", "Base-G", "LIMA", "CoorDL", "MPH"]
    results = {s: run_hdrop(s, epochs=epochs) for s in systems}
    rows = [
        [s, results[s].elapsed * 1000,
         results[s].counter("gpu/pointers_recycled"),
         results[s].counter("gpu/pointers_reused"),
         results[s].counter("cache/hits")]
        for s in systems
    ]
    table = format_table(
        ["system", "time [ms]", "recycled", "gpu_reused", "hits"],
        rows, title="Fig 14(b): HDROP dropout-rate tuning",
    )
    return ExperimentResult("hdrop", {0: results}, table)


def run_experiment_en2de() -> ExperimentResult:
    """E12 (Fig. 14(c)): EN2DE translation scoring."""
    systems = ["Base-G", "MPH-F", "Clipper", "PyTorch", "MPH"]
    results = {s: run_en2de(s) for s in systems}
    assert check_metrics_agree(results, rel_tol=1e-6)
    rows = [
        [s, results[s].elapsed * 1000,
         results[s].counter("gpu/pointers_reused"),
         results[s].counter("gpu/pointers_recycled"),
         results[s].counter("cache/function_hits")]
        for s in systems
    ]
    table = format_table(
        ["system", "time [ms]", "ptr_reused", "recycled", "pred_reused"],
        rows, title="Fig 14(c): EN2DE language translation scoring",
    )
    return ExperimentResult("en2de", {0: results}, table)


def run_experiment_tlvis(device_memory: int | None = None) -> ExperimentResult:
    """E13 (Fig. 14(d)): TLVIS transfer learning."""
    systems = ["Base-G", "VISTA", "PyTorch", "PyTorch-Clr", "MPH"]
    results = {
        s: run_tlvis(s, device_memory=device_memory) for s in systems
    }
    rows = [
        [s,
         "OOM" if results[s].failed else results[s].elapsed * 1000,
         results[s].counter("gpu/pointers_reused"),
         results[s].counter("gpu/pointers_recycled"),
         results[s].counter("compiler/evict_instructions")]
        for s in systems
    ]
    table = format_table(
        ["system", "time [ms]", "reused", "recycled", "evict_instrs"],
        rows, title="Fig 14(d): TLVIS transfer-learning feature extraction",
    )
    return ExperimentResult("tlvis", {0: results}, table)


def run_experiment_table2() -> ExperimentResult:
    """E14 (Table 2): measured backend properties."""
    cfg = MemphisConfig()
    sess = Session(cfg)
    rows = [
        ["Spark", "Lazy", "Distrib.",
         f"{cfg.spark.bandwidth_bytes_per_s / GB:.1f} GB/s", "Yes",
         "Large data"],
        ["GPU", "Async.", "Small",
         f"{cfg.gpu.h2d_bandwidth_bytes_per_s / GB:.1f} GB/s", "No",
         "Mini-batch, DNN"],
        ["CPU", "Eager", "Varying", "-", "No", "All"],
    ]
    table = format_table(
        ["backend", "exec", "memory", "bandwidth", "cache-API", "workload"],
        rows, title="Table 2: backend properties (as configured)",
    )
    return ExperimentResult("table2", {0: rows}, table)


def run_ablation_policies(scale_factor: int = 12) -> ExperimentResult:
    """A1: eviction policy and delay factor ablation on CLEAN."""
    rows = []
    grid: dict = {}

    def run(label: str, key: str, configure) -> None:
        with scope(configure=configure):
            result = grid[key] = run_clean("MPH", scale_factor)
        rows.append([
            label,
            result.elapsed * 1000,
            result.counter("cache/hits"),
            result.counter("cache/evictions"),
        ])

    for policy in EvictionPolicyName:
        def use_policy(config: MemphisConfig) -> None:
            config.cache.policy = policy
        run(f"policy={policy.value}", policy.value, use_policy)
    for delay in (1, 2, 4):
        def use_delay(config: MemphisConfig) -> None:
            config.cache.delay_factor = delay
            config.enable_auto_tuning = False
        run(f"delay={delay}", f"delay{delay}", use_delay)
    table = format_table(
        ["configuration", "time [ms]", "hits", "evictions"],
        rows, title="Ablation: eviction policies and delay factors (CLEAN)",
    )
    return ExperimentResult("ablation_policies", grid, table)


def run_ablation_ordering(paper_gb: float = 50.0) -> ExperimentResult:
    """A2: maxParallelize vs depth-first linearization on HCV."""
    results = {}
    for label, enabled in (("depth-first", False), ("maxParallelize", True)):
        def use_ordering(config: MemphisConfig) -> None:
            config.enable_max_parallelize = enabled
        with scope(configure=use_ordering):
            results[label] = run_hcv("MPH", paper_gb)
    rows = [
        [label, r.elapsed * 1000, r.counter("async/prefetch_issued")]
        for label, r in results.items()
    ]
    table = format_table(
        ["linearization", "time [ms]", "prefetches"],
        rows, title="Ablation: operator ordering (HCV, 50GB)",
    )
    return ExperimentResult("ablation_ordering", results, table)


def _size_label(size: int) -> str:
    if size >= 1024 * 1024:
        return f"{size // (1024 * 1024)}MB"
    if size >= 1024:
        return f"{size // 1024}KB"
    return f"{size}B"
