"""Shared substrate: configuration, errors, simulated time, cost model."""

from repro.common.config import (
    CacheConfig,
    CpuConfig,
    EvictionPolicyName,
    GpuConfig,
    MemphisConfig,
    ReuseMode,
    SparkConfig,
    StorageLevel,
    GB,
    KB,
    MB,
)
from repro.common.errors import (
    BackendError,
    CompilationError,
    GpuError,
    GpuOutOfMemoryError,
    LineageError,
    MemphisError,
    PlacementError,
    RecomputationError,
)
from repro.common.simclock import CLUSTER, DEVICE, HOST, SimClock, SimFuture
from repro.common.stats import Stats

__all__ = [
    "CacheConfig",
    "CpuConfig",
    "EvictionPolicyName",
    "GpuConfig",
    "MemphisConfig",
    "ReuseMode",
    "SparkConfig",
    "StorageLevel",
    "GB",
    "KB",
    "MB",
    "BackendError",
    "CompilationError",
    "GpuError",
    "GpuOutOfMemoryError",
    "LineageError",
    "MemphisError",
    "PlacementError",
    "RecomputationError",
    "SimClock",
    "SimFuture",
    "HOST",
    "CLUSTER",
    "DEVICE",
    "Stats",
]
