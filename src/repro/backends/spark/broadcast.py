"""TorrentBroadcast simulation (paper §2.2).

``broadcast(value)`` serializes the value into 4 MB chunks held in the
*driver's* BlockManager; chunks are transferred lazily to executors when a
job first uses the variable.  Until ``destroy()`` the serialized data
occupies driver memory — the "dangling reference" problem that MEMPHIS's
lazy garbage collection addresses (§4.1, Fig. 2(b)).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.backends.spark.rdd import TaskMetrics
from repro.common.stats import SPARK_BROADCASTS

if TYPE_CHECKING:  # pragma: no cover
    from repro.backends.spark.context import SparkContext


class Broadcast:
    """A broadcast variable with torrent-style lazy chunk transfer.

    Spark's TorrentBroadcast (paper §2.2): serialized chunks retain
    driver memory until ``destroy()`` — the dangling-reference leak of
    Fig. 2(b) that MEMPHIS's lazy broadcast GC reclaims (§4.1).
    """

    def __init__(self, context: "SparkContext", value: np.ndarray) -> None:
        self.id = next(context.ids.broadcast)
        self.context = context
        self._value = value
        self.shape = value.shape
        self.nbytes = int(value.nbytes)
        self.num_chunks = max(
            1, math.ceil(self.nbytes / context.config.broadcast_chunk_bytes)
        )
        self.transferred = False
        self.destroyed = False
        context.driver_retained_bytes += self.nbytes
        context.stats.inc(SPARK_BROADCASTS)

    def value_on_executor(self, metrics: TaskMetrics) -> np.ndarray:
        """Executor-side access; first use charges the torrent transfer."""
        if self.destroyed:
            raise RuntimeError(f"broadcast {self.id} used after destroy()")
        if not self.transferred:
            # the torrent protocol parallelizes re-distribution among
            # executors, so only the driver->first-executor leg is charged.
            metrics.bytes_read += self.nbytes
            self.transferred = True
        return self._value

    def destroy(self) -> None:
        """Release driver memory held by the serialized chunks."""
        if not self.destroyed:
            self.destroyed = True
            self.context.driver_retained_bytes -= self.nbytes
