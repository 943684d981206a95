"""SparkContext: driver-side entry point of the cluster simulator.

Owns the BlockManager and the shuffle map outputs; exposes
transformations (via :class:`RDD`), actions (``collect``, ``count``,
``reduce``), and asynchronous job submission used by MEMPHIS's
``prefetch`` operator.  Also tracks driver memory retained by dangling
broadcast chunks and collected results (Fig. 2(b)).

The context refers to no RDD (it keys their data by id), so a dropped
context dies by reference counting.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.backends.spark.blockmanager import BlockManager
from repro.backends.spark.broadcast import Broadcast
from repro.backends.spark.rdd import RDD, ParallelizedRDD
from repro.backends.spark.scheduler import JobResult, run_stages
from repro.common.config import SparkConfig
from repro.common.runtime import IdSpace, current as current_runtime
from repro.common.simclock import CLUSTER, HOST, SimClock, SimFuture
from repro.common.stats import (
    FAULT_EXECUTORS_LOST,
    FAULT_SHUFFLE_INVALIDATED,
    SPARK_PART_RECOMPUTED,
    Stats,
)
from repro.faults.injector import NULL_INJECTOR
from repro.faults.plan import KIND_EXECUTOR_LOSS
from repro.obs.events import EV_SPARK_JOB, EV_SPARK_STAGE, LANE_SP
from repro.obs.tracer import NULL_TRACER


class SparkContext:
    """Driver process handle to the simulated cluster.

    The driver-side entry point of the Spark backend (paper §2.2):
    owns storage and scheduling state, and exposes the synchronous and
    asynchronous actions MEMPHIS's ``prefetch`` rewrite relies on
    (§5.1, Fig. 2(b)).
    """

    def __init__(self, config: SparkConfig, clock: SimClock, stats: Stats,
                 tracer=None, faults=None, arbiter=None,
                 ids: Optional[IdSpace] = None) -> None:
        self.config = config
        self.clock = clock
        self.stats = stats
        #: numbers this context's RDDs and broadcasts (the owning
        #: session's id space; default: the current runtime context's).
        self.ids = ids if ids is not None else current_runtime().ids
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.faults = faults if faults is not None else NULL_INJECTOR
        self.block_manager = BlockManager(config, stats, tracer=self.tracer,
                                          faults=self.faults, arbiter=arbiter)
        self.driver_retained_bytes = 0
        #: shuffled RDD id -> one ``{out_partition: block}`` per map
        #: partition (``None`` if lost with an executor); kept until the
        #: context dies (Spark's MapOutputTracker).
        self.shuffle_outputs: dict[int, list] = {}
        self.shuffle_store_bytes = 0
        #: job-scoped partition memo set by ``run_stages``: within one
        #: job, each (rdd, partition) is computed at most once.
        self.job_memo = None
        #: parallel job lanes: concurrently submitted jobs overlap on the
        #: cluster up to this degree (Spark runs independent jobs
        #: concurrently when slots allow) — the source of the paper's
        #: Base-A speedup from asynchronous operators (§5.1).
        self._job_lanes = [0.0] * max(2, config.num_executors // 2)

    def note_partition_recomputed(self) -> None:
        self.stats.inc(SPARK_PART_RECOMPUTED)

    # -- data distribution ------------------------------------------------------

    def parallelize(self, matrix: np.ndarray, name: str = "parallelize") -> RDD:
        """Distribute a local matrix as a row-block partitioned RDD."""
        return ParallelizedRDD(self, matrix, self.config.block_size_rows, name)

    def broadcast(self, value: np.ndarray) -> Broadcast:
        """Create a torrent broadcast of a local matrix."""
        return Broadcast(self, value)

    # -- job execution ----------------------------------------------------------

    def run_job(self, rdd: RDD) -> tuple[JobResult, float]:
        """Execute a job; returns the result and its cluster end time.

        The job starts when the host has submitted it and a job lane is
        free; concurrently submitted jobs overlap up to the lane count.
        The *host* timeline is NOT advanced here — callers decide whether
        the action is synchronous or asynchronous.
        """
        if self.faults.enabled:
            for executor_id in self.faults.executor_losses(
                    self.config.num_executors):
                self.lose_executor(executor_id)
        result = run_stages(self, rdd)
        lane = min(range(len(self._job_lanes)),
                   key=lambda i: self._job_lanes[i])
        start = max(self.clock.now(HOST), self._job_lanes[lane])
        end = start + result.duration
        self._job_lanes[lane] = end
        self.clock.advance_to(end, CLUSTER)
        if self.tracer.enabled:
            self.tracer.complete(
                EV_SPARK_JOB, LANE_SP, start, end,
                rdd=rdd.name, stages=result.num_stages,
                tasks=result.num_tasks,
            )
            # stage spans laid out back-to-back after the job overhead
            offset = start + self.config.job_overhead_s
            for kind, tasks, dur in result.stages:
                self.tracer.complete(
                    EV_SPARK_STAGE, LANE_SP, offset, offset + dur,
                    kind=kind, tasks=tasks, rdd=rdd.name,
                )
                offset += dur
        return result, end

    # -- fault injection ---------------------------------------------------------

    def lose_executor(self, executor_id: int) -> None:
        """Model the death of one executor (fault injection).

        Partitions are striped across executors by index
        (``index % num_executors``), so the loss invalidates that
        stripe's shuffle map outputs (``None`` holes — the next job's
        map stage recomputes exactly those from RDD lineage) and drops
        its cached partitions from the BlockManager (recomputed on
        demand through ``RDD.get_partition``).
        """
        n = self.config.num_executors
        invalidated = 0
        for files in self.shuffle_outputs.values():
            for idx, out in enumerate(files):
                if out is None or idx % n != executor_id:
                    continue
                self.shuffle_store_bytes -= sum(b.nbytes
                                                for b in out.values())
                files[idx] = None
                invalidated += 1
        dropped = self.block_manager.drop_executor(executor_id, n)
        self.stats.inc(FAULT_EXECUTORS_LOST)
        if invalidated:
            self.stats.inc(FAULT_SHUFFLE_INVALIDATED, invalidated)
        self.faults.injected(
            KIND_EXECUTOR_LOSS, LANE_SP, executor=executor_id,
            shuffle_files=invalidated, cached_partitions=dropped,
        )

    # -- actions ------------------------------------------------------------------

    def collect(self, rdd: RDD) -> np.ndarray:
        """Synchronous collect: blocks the host until result transfer ends."""
        result, end = self.run_job(rdd)
        transfer = result.result_bytes / self.config.bandwidth_bytes_per_s
        self.clock.advance_to(end, HOST)
        self.clock.advance(transfer, HOST)
        return np.vstack(result.partitions)

    def collect_async(self, rdd: RDD) -> SimFuture:
        """Asynchronous collect used by ``prefetch`` (§5.1)."""
        result, end = self.run_job(rdd)
        transfer = result.result_bytes / self.config.bandwidth_bytes_per_s
        return SimFuture(
            self.clock, end + transfer, np.vstack(result.partitions),
            label=f"prefetch:{rdd.name}",
        )

    def count(self, rdd: RDD) -> int:
        """Synchronous count (used to force materialization)."""
        result, end = self.run_job(rdd)
        self.clock.advance_to(end, HOST)
        return sum(p.shape[0] for p in result.partitions)

    def count_async(self, rdd: RDD) -> SimFuture:
        """Asynchronous count — MEMPHIS's lazy materialization trigger."""
        result, end = self.run_job(rdd)
        value = sum(p.shape[0] for p in result.partitions)
        return SimFuture(self.clock, end, value, label=f"count:{rdd.name}")

    def reduce(self, rdd: RDD,
               fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
        """Synchronous reduce of all partitions to the driver."""
        result, end = self.run_job(rdd)
        out = result.partitions[0]
        for block in result.partitions[1:]:
            out = fn(out, block)
        transfer = out.nbytes / self.config.bandwidth_bytes_per_s
        self.clock.advance_to(end, HOST)
        self.clock.advance(transfer, HOST)
        return out

    def reduce_async(self, rdd: RDD,
                     fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> SimFuture:
        """Asynchronous reduce: the job runs without blocking the host.

        Used when the prefetch rewrite flags a single-block aggregate
        action for asynchronous execution (§5.1).
        """
        result, end = self.run_job(rdd)
        out = result.partitions[0]
        for block in result.partitions[1:]:
            out = fn(out, block)
        transfer = out.nbytes / self.config.bandwidth_bytes_per_s
        return SimFuture(self.clock, end + transfer, out,
                         label=f"reduce:{rdd.name}")
