"""Federated workers with worker-local lineage caches (paper §5.4).

The paper notes that for hierarchically-structured backends, "local
lineage-based reuse directly applies" and that prior work added
lineage-based reuse to *multi-tenant federated workers* [19].  This
module provides that substrate: each worker owns a shard of the data, a
local execution engine, and a **worker-local lineage cache** shared by
all tenants (coordinator sessions) that contact it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backends.cpu import kernels
from repro.common.config import CacheConfig
from repro.common.costs import op_flops
from repro.common.stats import Stats
from repro.core.cache import LineageCache
from repro.core.entry import BACKEND_CP
from repro.lineage.item import LineageItem
from repro.runtime.values import MatrixValue, ScalarValue, Value


@dataclass
class FederatedConfig:
    """Cost model for coordinator <-> worker interaction."""

    num_workers: int = 4
    #: WAN round-trip latency per federated request (s).
    request_latency_s: float = 25e-3
    #: coordinator <-> worker bandwidth (federated sites are remote).
    bandwidth_bytes_per_s: float = 125e6  # ~1 Gb/s
    #: worker compute throughput.
    flops_per_s: float = 0.5e12
    #: worker-local lineage cache budget.
    worker_cache_bytes: int = 64 * 1024 * 1024


class FederatedWorker:
    """One federated site: a data shard + local engine + lineage cache.

    The cache is *worker-local and multi-tenant*: any coordinator that
    sends a structurally identical request (same lineage) gets the
    cached result, regardless of which tenant computed it first [19].
    """

    def __init__(self, worker_id: int, config: FederatedConfig) -> None:
        self.worker_id = worker_id
        self.config = config
        self.stats = Stats()
        self.cache = LineageCache(
            CacheConfig(driver_cache_bytes=config.worker_cache_bytes,
                        spill_to_disk=False),
            self.stats,
        )
        #: named data shards held at this site.
        self._shards: dict[str, np.ndarray] = {}
        #: busy-until time of this worker (workers execute in parallel).
        self.busy_until = 0.0

    def put_shard(self, name: str, shard: np.ndarray) -> None:
        """Register (or replace) a local data shard."""
        self._shards[name] = np.asarray(shard, dtype=np.float64)

    def execute(self, opcode: str, lineage: LineageItem,
                inputs: list[object], attrs: dict,
                start_time: float, reuse: bool = True,
                slow_factor: float = 1.0) -> tuple[Value, float]:
        """Execute one federated request at this site.

        ``inputs`` name shards (str) or carry coordinator-shipped values.
        Returns ``(result, completion_time)``; the worker reuses its
        local lineage cache when ``reuse`` is enabled.  ``slow_factor``
        stretches the modeled compute time (slow-site fault injection) —
        it never changes the result.
        """
        begin = max(start_time, self.busy_until)
        if reuse:
            entry = self.cache.probe(lineage)
            if entry is not None:
                payload = entry.get_payload(BACKEND_CP)
                if payload is not None:
                    self.busy_until = begin  # free immediately
                    return payload, begin
        values: list[Value] = []
        for item in inputs:
            if isinstance(item, str):
                values.append(MatrixValue(self._shards[item]))
            elif isinstance(item, np.ndarray):
                values.append(MatrixValue(item))
            elif isinstance(item, (int, float)):
                values.append(ScalarValue(float(item)))
            else:
                values.append(item)
        out = kernels.execute(opcode, values, attrs)
        in_shapes = [v.shape for v in values] or [(1, 1)]
        duration = op_flops(opcode, in_shapes, out.shape) \
            / self.config.flops_per_s * slow_factor
        end = begin + duration
        self.busy_until = end
        if reuse:
            self.cache.put(lineage, out, BACKEND_CP, out.nbytes, duration)
        return out, end

    def restart(self) -> None:
        """Simulate a worker process restart (fault injection).

        The in-memory lineage cache and execution queue die with the
        process; data shards survive (site-local durable storage), so
        every request remains answerable — just without reuse history.
        """
        self.cache.clear()
        self.busy_until = 0.0
