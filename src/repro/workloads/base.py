"""Common infrastructure for the end-to-end workload drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.common.config import MemphisConfig
from repro.core.session import Session


@dataclass
class WorkloadResult:
    """Outcome of one (workload, system, parameters) run."""

    workload: str
    system: str
    params: dict
    elapsed: float
    counters: dict = field(default_factory=dict)
    #: workload-specific quality metric (accuracy, loss, R^2, ...) used
    #: to verify that reuse never changes results.
    metric: Optional[float] = None
    failed: Optional[str] = None

    def counter(self, name: str) -> int:
        return int(self.counters.get(name, 0))


#: system label -> config factory, mirroring the paper's baselines.
SYSTEMS: dict[str, Callable[..., MemphisConfig]] = {
    "Base": MemphisConfig.base,
    "Base-A": MemphisConfig.base_async,
    "LIMA": MemphisConfig.lima,
    "HELIX": MemphisConfig.helix,
    "MPH-NA": MemphisConfig.memphis_no_async,
    "MPH-F": MemphisConfig.memphis_fine_only,
    "MPH": MemphisConfig.memphis,
}


#: datasets of the Table-3 workloads are scaled down by the global
#: simulation factor; fixed per-operation overheads scale with them so
#: the overhead-to-compute ratio matches the paper's hardware (the exact
#: data factor is 1024, but intermediate results shrink less than the
#: inputs, so a conservative factor is used).
WORKLOAD_OVERHEAD_SCALE = 1.0 / 64.0


def make_session(system: str, gpu: bool = False, spark: bool = True,
                 overhead_scale: float = WORKLOAD_OVERHEAD_SCALE) -> Session:
    """Instantiate a session for one of the paper's system labels."""
    cfg = SYSTEMS[system](gpu_enabled=gpu, spark_enabled=spark)
    if overhead_scale != 1.0:
        scale_overheads(cfg, overhead_scale)
    return Session(cfg)


def scale_overheads(config: MemphisConfig, factor: float) -> MemphisConfig:
    """Scale all fixed per-operation overheads by ``factor``.

    Experiments that scale their *data* down by the global simulation
    factor must scale fixed overheads (instruction interpretation,
    tracing/probing, kernel launch, cudaMalloc/Free, Spark task/job
    submission) by the same factor, otherwise the overhead-to-compute
    ratio — which determines whether reuse pays off — would be inflated
    by the scale factor relative to the paper's hardware.
    """
    config.cpu.instruction_overhead_s *= factor
    config.cpu.trace_overhead_s *= factor
    config.cpu.probe_overhead_s *= factor
    config.gpu.kernel_launch_s *= factor
    config.gpu.malloc_latency_s *= factor
    config.gpu.free_latency_s *= factor
    config.spark.task_overhead_s *= factor
    config.spark.job_overhead_s *= factor
    return config


def finish(workload: str, system: str, params: dict, sess: Session,
           metric: Optional[float] = None,
           failed: Optional[str] = None) -> WorkloadResult:
    """Package a finished run into a result record."""
    return WorkloadResult(
        workload=workload,
        system=system,
        params=params,
        elapsed=sess.elapsed(),
        counters=sess.stats.counters(),
        metric=metric,
        failed=failed,
    )
