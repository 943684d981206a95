"""Lineage cache entries: wrappers around backend-specific data objects.

An entry maps one lineage key to cached payloads, which may exist on
multiple backends at once (paper §3.3: "the wrappers enable caching the
same object in multiple backends").  Entries carry the metadata the
eviction policies consume — compute cost, worst-case size, reference
counters (#hits, #misses, #jobs), last access, and status.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.lineage.item import LineageItem

#: backend tags used throughout the cache.
BACKEND_CP = "CP"
BACKEND_SP = "SP"
BACKEND_GPU = "GPU"

#: ``CacheEntry.victim_rec`` of an entry touched since it was last scored.
VICTIM_DIRTY = object()


class EntryStatus(enum.Enum):
    """Lifecycle of a cache entry (delayed caching, §5.2)."""

    TO_CACHE = "to_cache"  #: placeholder created; object not yet stored.
    CACHED = "cached"
    SPILLED = "spilled"  #: driver payload written to local disk (§3.3).
    EVICTED = "evicted"
    INVALID = "invalid"


class CacheEntry:
    """One lineage-keyed cache entry with multi-backend payloads."""

    __slots__ = (
        "key", "status", "payloads", "size", "compute_cost", "height",
        "hits", "misses", "jobs", "last_access", "seen_count",
        "is_function", "rdd_materialized", "outputs", "cp_accounted",
        "owner", "tenant", "request", "seq", "victim_rec",
    )

    def __init__(self, key: LineageItem, compute_cost: float = 0.0,
                 size: int = 0) -> None:
        self.key = key
        self.status = EntryStatus.TO_CACHE
        #: backend tag -> payload (Value / SparkEntryPayload / GpuData).
        self.payloads: dict[str, object] = {}
        self.size = size
        self.compute_cost = compute_cost
        self.height = key.height
        self.hits = 0
        self.misses = 0
        self.jobs = 0
        self.last_access = 0.0
        #: number of times this lineage was observed (drives delay factor).
        self.seen_count = 0
        self.is_function = key.is_function
        #: for Spark RDD payloads: whether the RDD is known materialized.
        self.rdd_materialized = False
        #: for function entries: the list of per-output payload keys.
        self.outputs: Optional[list] = None
        #: bytes this entry's CP payload has charged to the driver-cache
        #: budget.  ``size`` is the worst case across backends; eviction
        #: and invalidation must release exactly what was charged, or the
        #: budget drifts (CP copies attached as exchange ride-alongs are
        #: never charged).
        self.cp_accounted = 0
        #: shared-substrate provenance (``repro.server``): the session
        #: uid that first put this entry and the tenant its CP bytes are
        #: attributed to.  ``None`` on private (single-session) caches.
        self.owner: Optional[int] = None
        self.tenant: Optional[str] = None
        #: producer request id (``repro.obs.request``): which server
        #: request first put this entry — what cost-attribution events
        #: report as ``producer_request``.  ``None`` outside a request.
        self.request: Optional[str] = None
        #: creation sequence number, stamped by the owning cache: equal
        #: eviction scores tie-break on it, which is the cache's dict
        #: order (``repro.core.victim_index``).
        self.seq = 0
        #: the entry's latest ``(score, seq, entry)`` record in the
        #: cache's victim index; ``VICTIM_DIRTY`` once a score input or
        #: CP residency moved since (``LineageCache.touch``), ``None``
        #: while it has none.
        self.victim_rec: object = None

    # -- payload management ----------------------------------------------------

    def put_payload(self, backend: str, payload: object, size: int,
                    cost: float) -> None:
        """Attach (or refresh) a backend-local payload."""
        self.payloads[backend] = payload
        self.size = max(self.size, size)
        self.compute_cost = max(self.compute_cost, cost)
        self.status = EntryStatus.CACHED

    def get_payload(self, backend: str) -> Optional[object]:
        return self.payloads.get(backend)

    def drop_payload(self, backend: str) -> None:
        """Remove one backend's copy; entry survives if others remain."""
        self.payloads.pop(backend, None)
        if not self.payloads:
            self.status = EntryStatus.EVICTED

    @property
    def is_cached(self) -> bool:
        return self.status is EntryStatus.CACHED and bool(self.payloads)

    def __repr__(self) -> str:
        return (
            f"CacheEntry({self.key.opcode}, {self.status.value}, "
            f"backends={sorted(self.payloads)}, size={self.size}, "
            f"hits={self.hits})"
        )
