"""Federated coordinator: row-partitioned matrices over remote workers.

A :class:`FederatedCoordinator` is one tenant's entry point to a shared
worker fleet.  Federated matrices are row-partitioned across sites;
operations ship instructions (not data) to the workers, which execute in
parallel, reuse their local lineage caches, and return only small
partial results to the coordinator — the ExDRa-style federated backend
the paper lists under "Deeper Hierarchies" (§5.4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backends.federated.worker import FederatedConfig, FederatedWorker
from repro.common.runtime import current as current_runtime
from repro.common.simclock import HOST, SimClock
from repro.common.stats import Stats
from repro.lineage.item import LineageItem
from repro.obs.events import EV_FED_REQUEST, LANE_FED
from repro.obs.tracer import NULL_TRACER

FED_REQUESTS = "federated/requests"
FED_REUSED = "federated/worker_reuses"


@dataclass
class FederatedMatrix:
    """A matrix row-partitioned across the worker fleet."""

    name: str
    nrow: int
    ncol: int
    #: worker id -> (shard name, row count) at that site.
    placement: list[tuple[int, str, int]]
    #: lineage item per shard (from its worker's interner).
    lineages: list[LineageItem]


class FederatedCoordinator:
    """One tenant session against a (possibly shared) worker fleet.

    Tenants sharing a fleet must share one :class:`SimClock` so worker
    ``busy_until`` times are comparable across coordinators.  Tracing
    comes from the runtime context current at construction, as for a
    :class:`~repro.core.session.Session`; lineage comes from each
    worker's interner.
    """

    def __init__(self, workers: list[FederatedWorker],
                 config: FederatedConfig | None = None,
                 clock: SimClock | None = None,
                 reuse: bool = True) -> None:
        rt = current_runtime()
        self.workers = workers
        self.config = config or (
            workers[0].config if workers else FederatedConfig()
        )
        self.clock = clock or SimClock()
        self.stats = Stats()
        self.reuse = reuse
        self.tracer = (
            rt.trace.tracer(self.clock, label="federated")
            if rt.trace is not None else NULL_TRACER
        )

    # -- data placement ---------------------------------------------------------

    def federate(self, name: str, matrix: np.ndarray) -> FederatedMatrix:
        """Partition ``matrix`` row-wise across the fleet.

        Models reading *federated raw data*: the shards conceptually
        already live at the sites, so no transfer is charged.
        """
        rows = matrix.shape[0]
        per = max(rows // len(self.workers), 1)
        placement = []
        lineages = []
        offset = 0
        for i, worker in enumerate(self.workers):
            stop = rows if i == len(self.workers) - 1 else offset + per
            shard_name = f"{name}@w{worker.worker_id}"
            worker.put_shard(shard_name, matrix[offset:stop])
            placement.append((worker.worker_id, shard_name, stop - offset))
            lineages.append(worker.interner.dataset(shard_name))
            offset = stop
            if offset >= rows:
                break
        return FederatedMatrix(name, rows, matrix.shape[1],
                               placement, lineages)

    # -- federated operations -----------------------------------------------------

    def matvec(self, fm: FederatedMatrix, vector: np.ndarray) -> np.ndarray:
        """``X %*% v`` with coordinator-shipped ``v``; partials return."""
        return np.vstack([p.data for p in self._round(fm, "ba+*", vector)])

    def tsmm(self, fm: FederatedMatrix) -> np.ndarray:
        """``t(X) %*% X`` via per-site partials summed at the coordinator."""
        return np.add.reduce([p.data for p in self._round(fm, "fed_tsmm")])

    def column_sums(self, fm: FederatedMatrix) -> np.ndarray:
        """colSums via per-site partials."""
        return np.add.reduce([p.data for p in self._round(fm, "uack+")])

    # -- internals ------------------------------------------------------------------

    def _round(self, fm: FederatedMatrix, opcode: str,
               vector: np.ndarray | None = None):
        """One federated round: parallel ``opcode`` requests on every
        placed shard (and the shipped ``vector``, if any), each
        returning its partial result to the coordinator.  A request's
        lineage comes from its worker's interner."""
        ship_bytes = 0 if vector is None else vector.nbytes
        digest = None if vector is None else _digest(vector)
        submit = self.clock.now(HOST) + self.config.request_latency_s \
            + ship_bytes / self.config.bandwidth_bytes_per_s
        results = []
        completion = submit
        return_bytes = 0
        for (wid, shard_name, _), lineage in zip(fm.placement, fm.lineages):
            worker = self._worker(wid)
            inputs: list = [shard_name]
            in_lineage = (lineage,)
            if vector is not None:
                inputs.append(vector)
                in_lineage += (worker.interner.literal(digest),)
            out_lineage = worker.interner.intern(opcode, (), in_lineage)
            hits_before = worker.stats.get("cache/hits")
            value, end = worker.execute(
                opcode, out_lineage, inputs, {}, submit, self.reuse
            )
            reused = worker.stats.get("cache/hits") > hits_before
            if reused:
                self.stats.inc(FED_REUSED)
            self.stats.inc(FED_REQUESTS)
            if self.tracer.enabled:
                self.tracer.complete(
                    EV_FED_REQUEST, LANE_FED, submit, end,
                    worker=wid, opcode=opcode, reused=reused,
                )
            results.append(value)
            completion = max(completion, end)
            return_bytes += value.nbytes
        # workers run in parallel; the coordinator waits for the slowest,
        # then receives the (partial) results
        self.clock.advance_to(
            completion + self.config.request_latency_s
            + return_bytes / self.config.bandwidth_bytes_per_s,
            HOST,
        )
        return results

    def _worker(self, worker_id: int) -> FederatedWorker:
        for worker in self.workers:
            if worker.worker_id == worker_id:
                return worker
        raise KeyError(f"unknown federated worker {worker_id}")


def _digest(array: np.ndarray) -> str:
    """Stable content digest used as a lineage literal for shipped data."""
    return f"sha:{hash(array.tobytes()) & 0xFFFFFFFFFFFF:x}"
