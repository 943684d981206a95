"""Spark backend simulator: lazy RDDs, DAG scheduling, memory management."""

from repro.backends.spark.backend import (
    SPARK_OPCODES,
    DistributedMatrix,
    SparkBackend,
)
from repro.backends.spark.blockmanager import BlockManager
from repro.backends.spark.broadcast import Broadcast
from repro.backends.spark.context import SparkContext
from repro.backends.spark.rdd import (
    RDD,
    NarrowDependency,
    NarrowRDD,
    ParallelizedRDD,
    ShuffleDependency,
    ShuffledRDD,
    TaskMetrics,
)
from repro.backends.spark.scheduler import JobResult

__all__ = [
    "SPARK_OPCODES",
    "SparkBackend",
    "DistributedMatrix",
    "BlockManager",
    "Broadcast",
    "SparkContext",
    "RDD",
    "NarrowDependency",
    "NarrowRDD",
    "ParallelizedRDD",
    "ShuffleDependency",
    "ShuffledRDD",
    "TaskMetrics",
    "JobResult",
]
