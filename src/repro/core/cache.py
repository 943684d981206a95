"""The hierarchical multi-backend lineage cache (paper §3.3, Fig. 3).

A hash map from canonical lineage items (interned, so keyed by
identity) to :class:`CacheEntry` objects whose
payloads live in backend-local stores: in-memory matrices in the driver
(budgeted by the driver cache size), distributed RDD handles (budgeted
against Spark storage memory by the :class:`SparkCacheManager`), and GPU
pointers (owned by the GPU unified memory manager, which calls back on
recycling).  The cache implements the system-internal API of §3.1:
``probe/reuse`` and ``put``, plus delayed caching (§5.2).  The paper's
``make_space`` is not a separate call: ``put`` evicts until its entry
fits.

Space requests and victim selection go through the shared
:class:`~repro.memory.arbiter.MemoryArbiter`; bytes are counted on the
two regions the cache holds — the driver tier is the ``CP`` region,
spilled binaries live in the ``DISK`` region — and the spill-vs-drop
break-even (§3.3) is the arbiter's spill model.  The
cache keeps only the physics — payload movement, simulated disk I/O
time, and lineage bookkeeping.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import CacheConfig
from repro.common.stats import (
    CACHE_DELAYED,
    CACHE_EVICTIONS,
    CACHE_HITS,
    CACHE_MISSES,
    CACHE_PUTS,
    CACHE_RESTORES,
    CACHE_SPILLS,
    LINEAGE_PROBES,
    SERVER_QUOTA_REFUSALS,
    Stats,
)
from repro.core.entry import (
    BACKEND_CP,
    BACKEND_GPU,
    BACKEND_SP,
    VICTIM_DIRTY,
    CacheEntry,
    EntryStatus,
)
from repro.core.policies import EvictionPolicy, make_policy
from repro.core.victim_index import VictimIndex
from repro.lineage.item import LineageItem
from repro.memory import REGION_CP, REGION_DISK, MemoryArbiter
from repro.obs.events import (
    EV_CACHE_DELAY,
    EV_CACHE_EVICT,
    EV_CACHE_PUT,
    EV_CACHE_RESTORE,
    EV_CACHE_SPILL,
    EV_PROBE,
)
from repro.obs.tracer import NULL_TRACER


#: payload tag for driver-local entries spilled to disk.
BACKEND_DISK = "DISK"

_CACHED = EntryStatus.CACHED
_SPILLED = EntryStatus.SPILLED


class LineageCache:
    """Unified lineage-keyed cache across CP, Spark, GPU, and local disk.

    When a ``clock`` is provided, evicted driver entries whose compute
    cost exceeds the disk round-trip cost are *spilled* to a simulated
    local disk instead of dropped ("disk-evicted binaries", §3.3); a
    later probe restores them, charging the read.
    """

    def __init__(self, config: CacheConfig, stats: Stats,
                 policy: Optional[EvictionPolicy] = None,
                 clock=None,
                 disk_bytes_per_s: float = 1024**3,
                 flops_per_s: float = 1.5e12,
                 tracer=None, faults=None, arbiter=None) -> None:
        self.config = config
        self.stats = stats
        self.policy = policy or make_policy(config.policy)
        self.clock = clock
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if arbiter is None:
            arbiter = MemoryArbiter(stats, tracer=self.tracer, faults=faults)
        self.arbiter: MemoryArbiter = arbiter
        self.faults = faults if faults is not None else arbiter.faults
        self.disk_bytes_per_s = disk_bytes_per_s
        self.flops_per_s = flops_per_s
        self._cp_region = arbiter.add_region(
            REGION_CP, config.driver_cache_bytes,
            policy=self.policy, unlimited=config.unlimited,
        )
        self._disk_region = arbiter.add_region(
            REGION_DISK, config.disk_cache_bytes,
        )
        arbiter.configure_spill(
            REGION_CP,
            enabled=config.spill_to_disk and clock is not None,
            disk_region=REGION_DISK,
            bytes_per_s=disk_bytes_per_s,
            flops_per_s=flops_per_s,
        )
        self._entries: dict[LineageItem, CacheEntry] = {}
        #: victim order of the CP region, for policies that allow one;
        #: ``None`` (MRD) falls back to scanning ``_entries`` per victim.
        self._index: Optional[VictimIndex] = \
            VictimIndex(self.policy) if self.policy.indexable else None
        self._logical_time = 0
        #: GPU pointer id -> entry, for invalidation callbacks.
        self._gpu_index: dict[int, CacheEntry] = {}
        #: active session scope on a *shared* cache (``repro.server``):
        #: a ``SessionContext`` namespacing keys and enforcing tenant
        #: fair share.  ``None`` on private caches — the hot path then
        #: pays exactly one attribute check per probe/put.
        self._scope = None

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def cp_bytes(self) -> int:
        """Bytes held by driver-local (CP) payloads."""
        return self._cp_region.used

    def entries(self) -> list[CacheEntry]:
        return list(self._entries.values())

    def metrics_gauges(self) -> dict[str, float]:
        """Gauge snapshot for the metrics sampler (``repro.obs.metrics``)."""
        return {"cache/entries": float(len(self._entries))}

    def get_entry(self, key: LineageItem) -> Optional[CacheEntry]:
        """Raw entry lookup without hit/miss accounting."""
        scope = self._scope
        if scope is not None:
            key = scope.namespaced(key)
        return self._entries.get(key)

    # -- core API (paper §3.1) --------------------------------------------------

    def probe(self, key: LineageItem) -> Optional[CacheEntry]:
        """REUSE probe: returns the entry on a hit, ``None`` otherwise.

        A hit requires a CACHED entry; placeholders (delayed caching) and
        evicted entries count as misses but update reference metadata used
        by the eviction policy.
        """
        scope = self._scope
        if scope is not None:
            key = scope.namespaced(key)
        self._logical_time += 1
        counts = self.stats.counts
        counts[LINEAGE_PROBES] += 1
        if scope is not None:
            # per-tenant probe tally feeds the server SLO hit-rate rows
            scope.events["probes"] += 1
        entry = self._entries.get(key)
        tracing = self.tracer.enabled
        if entry is None:
            counts[CACHE_MISSES] += 1
            if tracing:
                self._trace_probe(key, hit=False)
            return None
        entry.last_access = self._logical_time
        index = self._index
        if index is not None and entry.victim_rec is not VICTIM_DIRTY:
            index.touch(entry)
        if scope is not None and not scope.usable(entry):
            # another session's entry without a host-side copy: its
            # Spark/GPU payloads are bound to the owner's backends
            entry.misses += 1
            counts[CACHE_MISSES] += 1
            if tracing:
                self._trace_probe(key, hit=False)
            return None
        if entry.status is _CACHED and entry.payloads:  # ``is_cached``
            entry.hits += 1
            counts[CACHE_HITS] += 1
            if scope is not None:
                scope.note_hit(entry)
            if tracing:
                self._trace_probe(key, hit=True)
            return entry
        if entry.status is _SPILLED and BACKEND_DISK in entry.payloads:
            restored = self._restore_from_disk(entry)
            if restored:
                entry.hits += 1
                counts[CACHE_HITS] += 1
                if scope is not None:
                    scope.note_hit(entry)
                if tracing:
                    self._trace_probe(key, hit=True, restored=True)
                return entry
        entry.misses += 1
        counts[CACHE_MISSES] += 1
        if tracing:
            self._trace_probe(key, hit=False)
        return None

    def _trace_probe(self, key: LineageItem, hit: bool, **extra) -> None:
        self.tracer.instant(EV_PROBE, hit=hit, opcode=key.opcode,
                            key=key.id, **extra)

    def put(self, key: LineageItem, payload: object, backend: str,
            size: int, compute_cost: float,
            delay_factor: Optional[int] = None) -> Optional[CacheEntry]:
        """PUT: store an instruction result under its lineage key.

        With delay factor *n* > 1, the first *n - 1* puts only create or
        bump an empty TO-BE-CACHED placeholder; the n-th put stores the
        actual object (paper §5.2).  Returns the entry when the payload
        was actually cached, else ``None``.
        """
        scope = self._scope
        if scope is not None:
            key = scope.namespaced(key)
        now = self._logical_time = self._logical_time + 1
        n = self.config.delay_factor if delay_factor is None else delay_factor
        entries = self._entries
        entry = entries.get(key)
        index = self._index
        if entry is None:
            entry = CacheEntry(key, compute_cost, size)
            entry.seq = now  # one tick per put: unique, creation-ordered
            if scope is not None:
                entry.owner = scope.uid
                entry.tenant = scope.tenant
                request = scope.request
                if request is not None:
                    entry.request = request.request_id
            entries[key] = entry
        elif index is not None and entry.victim_rec is not VICTIM_DIRTY:
            index.touch(entry)  # ``last_access`` moves on every exit below
        entry.seen_count += 1
        entry.last_access = now
        if entry.seen_count < n:  # delayed caching (§5.2)
            self.stats.counts[CACHE_DELAYED] += 1
            if self.tracer.enabled:
                self.tracer.instant(EV_CACHE_DELAY, opcode=key.opcode,
                                    key=key.id, seen=entry.seen_count)
            return None
        ptr = None
        if backend == BACKEND_CP:
            if entry.cp_accounted:  # re-put: release the old charge first
                self._release_cp(entry)
            if scope is not None \
                    and not self._fit_tenant_quota(entry, size):
                return None
            if not self.arbiter.reserve(
                REGION_CP, size, candidates=self._cp_candidates,
                evict=self.evict_cp, now=self._logical_time,
            ):
                return None
            self._cp_region.commit(size)
            entry.cp_accounted = size
            if entry.tenant is not None:
                self._cp_region.charge_tenant(entry.tenant, size)
        elif backend == BACKEND_GPU:
            self._forget_gpu_pointer(entry)  # a re-put replaces the pointer
            ptr = payload.ptr
        if BACKEND_DISK in entry.payloads:
            # the fresh copy supersedes a spilled one nothing could read
            # once the entry is CACHED again; release it at the size it
            # was charged, before ``put_payload`` can grow ``size``
            self._disk_region.release(entry.size)
            entry.drop_payload(BACKEND_DISK)
        entry.put_payload(backend, payload, size, compute_cost)
        if index is not None and entry.victim_rec is not VICTIM_DIRTY:
            index.touch(entry)
        if ptr is not None:
            self._gpu_index[ptr.id] = entry
            ptr.cached = True
            payload.free.refile(ptr)  # a free pointer changes its Eq. 2 class
        self.stats.counts[CACHE_PUTS] += 1
        if self.tracer.enabled:
            self.tracer.instant(EV_CACHE_PUT, backend=backend, size=size,
                                opcode=key.opcode, key=key.id)
        return entry

    # -- eviction -----------------------------------------------------------------

    def touch(self, entry: CacheEntry) -> None:
        """Tell the victim index a score input or CP residency of
        ``entry`` moved.

        The one notification every mutator calls: ``probe``/``put``/
        restore here, and the three sites that change an entry behind
        the cache's back (``Interpreter._cache_exchange``,
        ``SparkCacheManager.cache_rdd``/``_async_materialize``).  Losing
        residency (evict, spill, invalidate) needs no call.
        """
        if self._index is not None:
            self._index.touch(entry)

    def _cp_candidates(self) -> list[CacheEntry]:
        """What ``select_victim`` examines for the next CP victim."""
        index = self._index
        if index is None:
            return self._scan_candidates()
        scope = self._scope
        return index.candidates(
            self._logical_time, None if scope is None else scope.evictable
        )

    def _scan_resident(self) -> list[CacheEntry]:
        return [
            e for e in self._entries.values()
            if BACKEND_CP in e.payloads and e.is_cached
        ]

    def _scan_candidates(self, own: Optional[str] = None,
                         skip: Optional[CacheEntry] = None
                         ) -> list[CacheEntry]:
        """Victim candidates by a full scan of ``_entries``.

        The definition the index must agree with: MRD (whose score
        moves with ``now``) selects through it, and :meth:`audit` uses
        it as the oracle.  ``own`` gives a tenant's quota-shrink view
        instead of the active scope's.
        """
        resident = self._scan_resident()
        if own is not None:
            return [e for e in resident if e.tenant == own and e is not skip]
        scope = self._scope
        if scope is None:
            return resident
        # fair-share victim filter: another tenant's entries are
        # protected while that tenant is within its quota
        return [e for e in resident if scope.evictable(e)]

    def _release_cp(self, entry: CacheEntry) -> None:
        """Release the entry's CP charge (+ tenant ledger)."""
        nbytes = entry.cp_accounted
        if not nbytes:
            return
        self._cp_region.release(nbytes)
        entry.cp_accounted = 0
        if entry.tenant is not None:
            self._cp_region.charge_tenant(entry.tenant, -nbytes)

    def _fit_tenant_quota(self, entry: CacheEntry, size: int) -> bool:
        """Make ``size`` bytes fit under the entry tenant's quota.

        Shrinks the tenant's *own* CP entries first; when the
        quota still cannot take the bytes, the put is refused — a tenant
        never caches past its fair share.
        """
        tenant = entry.tenant
        if tenant is None:
            return True
        headroom = self._cp_region.quota_headroom(tenant)
        if headroom is None or size <= headroom:
            return True
        index = self._index
        now = self._logical_time
        while True:
            own = self._scan_candidates(tenant, entry) if index is None \
                else index.own_candidates(tenant, now, entry)
            victim = self.arbiter.select_victim(REGION_CP, own, now=now)
            if victim is None:
                break
            self.evict_cp(victim)
            headroom = self._cp_region.quota_headroom(tenant)
            if headroom is None or size <= headroom:
                return True
        self.stats.inc(SERVER_QUOTA_REFUSALS)
        scope = self._scope
        if scope is not None:
            scope.substrate.note_tenant_event(tenant, "quota_refusals")
        return False

    def evict_cp(self, entry: CacheEntry) -> None:
        """Evict the driver-local payload of ``entry``.

        High compute-cost entries are spilled to local disk (restorable
        by a later probe); cheap-to-recompute ones are dropped outright.
        The spill-vs-drop break-even is the arbiter's decision
        (:meth:`~repro.memory.arbiter.MemoryArbiter.should_spill`).
        """
        payload = entry.payloads.get(BACKEND_CP)
        if payload is None:
            return
        self._release_cp(entry)
        if self.arbiter.should_spill(REGION_CP, entry.size,
                                     entry.compute_cost) \
                and not self._spill_faulted(entry):
            self.clock.advance(entry.size / self.disk_bytes_per_s)
            entry.payloads[BACKEND_DISK] = payload
            entry.payloads.pop(BACKEND_CP, None)
            entry.status = EntryStatus.SPILLED
            self._disk_region.acquire(entry.size)
            self.stats.inc(CACHE_SPILLS)
            self.arbiter.record_spill(REGION_CP, entry.size,
                                      key=entry.key.id)
            if self.tracer.enabled:
                self.tracer.instant(EV_CACHE_SPILL, size=entry.size,
                                    opcode=entry.key.opcode,
                                    key=entry.key.id)
        else:
            entry.drop_payload(BACKEND_CP)
        self.stats.counts[CACHE_EVICTIONS] += 1
        self.arbiter.record_evict(REGION_CP, entry.size, key=entry.key.id)
        if self.tracer.enabled:
            self.tracer.instant(EV_CACHE_EVICT, backend=BACKEND_CP,
                                size=entry.size, opcode=entry.key.opcode,
                                key=entry.key.id)

    def _spill_faulted(self, entry: CacheEntry) -> bool:
        """Injected spill-I/O error: the write fails, the payload is lost.

        The entry degrades to a plain eviction (recoverable through
        lineage recomputation), never a silently corrupt disk copy.
        """
        return self.arbiter.spill_fault(key=entry.key.id,
                                        opcode=entry.key.opcode,
                                        nbytes=entry.size)

    def _restore_from_disk(self, entry: CacheEntry) -> bool:
        """Read a spilled payload back into the driver cache."""
        payload = entry.payloads.get(BACKEND_DISK)
        if payload is None:
            return False
        if not self.arbiter.reserve(
            REGION_CP, entry.size, candidates=self._cp_candidates,
            evict=self.evict_cp, now=self._logical_time,
        ):
            return False
        if self.arbiter.restore_fault(key=entry.key.id,
                                      opcode=entry.key.opcode,
                                      nbytes=entry.size):
            # injected read error: the disk copy is unusable and dropped;
            # the caller falls back to lineage recomputation
            self._cp_region.cancel(entry.size)
            self._disk_region.release(entry.size)
            entry.drop_payload(BACKEND_DISK)
            if entry.payloads:
                entry.status = EntryStatus.CACHED
            return False
        self.clock.advance(entry.size / self.disk_bytes_per_s)
        entry.payloads[BACKEND_CP] = payload
        entry.payloads.pop(BACKEND_DISK, None)
        entry.status = EntryStatus.CACHED
        self._disk_region.release(entry.size)
        self._cp_region.commit(entry.size)
        entry.cp_accounted = entry.size
        if entry.tenant is not None:
            self._cp_region.charge_tenant(entry.tenant, entry.size)
        self.touch(entry)
        self.stats.inc(CACHE_RESTORES)
        self.arbiter.record_restore(REGION_CP, entry.size,
                                    key=entry.key.id)
        if self.tracer.enabled:
            self.tracer.instant(EV_CACHE_RESTORE, size=entry.size,
                                opcode=entry.key.opcode, key=entry.key.id)
        return True

    @property
    def disk_bytes(self) -> int:
        """Bytes held by spilled (disk-resident) entries."""
        return self._disk_region.used

    def drop_backend_payload(self, entry: CacheEntry, backend: str) -> None:
        """Remove one backend copy (e.g. after unpersist), keep others."""
        if backend == BACKEND_CP and BACKEND_CP in entry.payloads:
            self.evict_cp(entry)
            return
        if backend == BACKEND_GPU:
            self._forget_gpu_pointer(entry)
        entry.drop_payload(backend)
        self.stats.inc(CACHE_EVICTIONS)
        if self.tracer.enabled:
            self.tracer.instant(EV_CACHE_EVICT, backend=backend,
                                size=entry.size, opcode=entry.key.opcode,
                                key=entry.key.id)

    def invalidate_entry(self, entry: CacheEntry,
                         spark_mgr=None) -> list[str]:
        """Hard-drop every backend copy of ``entry`` (fault injection).

        Models losing a cached intermediate outright — driver copy, disk
        spill, distributed RDD (via the Spark cache manager when given,
        so storage-memory accounting stays exact), and GPU pointer index
        entry.  Returns the backend tags that were dropped; the value
        remains recoverable only through lineage recomputation.
        """
        dropped: list[str] = []
        if BACKEND_CP in entry.payloads:
            self._release_cp(entry)
            entry.drop_payload(BACKEND_CP)
            dropped.append(BACKEND_CP)
        if BACKEND_DISK in entry.payloads:
            self._disk_region.release(entry.size)
            entry.drop_payload(BACKEND_DISK)
            dropped.append(BACKEND_DISK)
        if BACKEND_SP in entry.payloads:
            if spark_mgr is not None:
                spark_mgr.evict(entry)
            else:
                entry.drop_payload(BACKEND_SP)
            dropped.append(BACKEND_SP)
        if BACKEND_GPU in entry.payloads:
            self._forget_gpu_pointer(entry)
            entry.drop_payload(BACKEND_GPU)
            dropped.append(BACKEND_GPU)
        if dropped:
            entry.status = EntryStatus.EVICTED
            self.stats.inc(CACHE_EVICTIONS)
            if self.tracer.enabled:
                self.tracer.instant(EV_CACHE_EVICT, backend=",".join(dropped),
                                    size=entry.size,
                                    opcode=entry.key.opcode,
                                    key=entry.key.id)
        return dropped

    # -- GPU integration ---------------------------------------------------------

    def on_gpu_invalidate(self, ptr) -> None:
        """Callback from the GPU memory manager before a pointer (already
        off its Free list) is recycled/freed: the entry backed by it
        loses its GPU payload."""
        ptr.cached = False
        entry = self._gpu_index.pop(ptr.id, None)
        if entry is not None:
            entry.drop_payload(BACKEND_GPU)
            self.stats.inc(CACHE_EVICTIONS)
            if self.tracer.enabled:
                self.tracer.instant(EV_CACHE_EVICT, backend=BACKEND_GPU,
                                    size=entry.size,
                                    opcode=entry.key.opcode,
                                    key=entry.key.id)

    # -- maintenance ---------------------------------------------------------------

    def remove(self, key: LineageItem) -> None:
        scope = self._scope
        if scope is not None:
            key = scope.namespaced(key)
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        self._release_cp(entry)
        if BACKEND_DISK in entry.payloads:
            self._disk_region.release(entry.size)
        self._forget_gpu_pointer(entry)
        if self._index is not None:
            self._index.forget(entry)

    def clear(self) -> None:
        for entry in list(self._gpu_index.values()):
            self._forget_gpu_pointer(entry)
        self._gpu_index.clear()
        self._entries.clear()
        self._cp_region.reset()
        self._disk_region.reset()
        if self._index is not None:
            self._index.clear()

    def _forget_gpu_pointer(self, entry: CacheEntry) -> None:
        """The GPU pointer behind ``entry`` is no longer cache-owned;
        the payload names the Free list that may hold it."""
        payload = entry.payloads.get(BACKEND_GPU)
        if payload is not None:
            ptr = payload.ptr
            ptr.cached = False
            payload.free.refile(ptr)  # a free pointer changes its Eq. 2 class
            self._gpu_index.pop(ptr.id, None)

    def audit(self) -> None:
        """Assert the cache's conservation laws (tests, sweeps).

        The byte ledgers equal what the entries say they charged — CP
        ``used`` (and each tenant's share) against ``cp_accounted``, DISK
        ``used`` against the spilled entries' sizes, and an entry with no
        CP payload has no CP charge — and the victim index is redundant
        state that agrees with its oracle: every CP-resident entry is
        reachable in it, and the victim it yields *is* the full scan's,
        for the active scope and for every tenant's quota-shrink view.
        The GPU pointer index is exactly the entries' GPU payloads, each
        marked ``cached``: the GPU memory manager skips invalidating an
        uncached victim.  Every probe counted is a hit or a miss.
        """
        entries = list(self._entries.values())
        gpu = {}
        for e in entries:
            assert not e.cp_accounted or BACKEND_CP in e.payloads, \
                f"{e.cp_accounted} B charged to {e.key.id} with no CP payload"
            ptr = getattr(e.payloads.get(BACKEND_GPU), "ptr", None)
            if ptr is not None:
                assert ptr.cached, f"GPU payload {ptr!r} is not marked cached"
                gpu[ptr.id] = e
        assert gpu == self._gpu_index, \
            f"GPU index {sorted(self._gpu_index)} != payloads {sorted(gpu)}"
        cp = self._cp_region
        charged = sum(e.cp_accounted for e in entries)
        assert cp.used == charged, \
            f"CP ledger {cp.used} != charged bytes {charged}"
        spilled = sum(e.size for e in entries if BACKEND_DISK in e.payloads)
        assert self._disk_region.used == spilled, \
            f"DISK ledger {self._disk_region.used} != spilled bytes {spilled}"
        by_tenant: dict[str, int] = {}
        for e in entries:
            if e.tenant is not None and e.cp_accounted:
                by_tenant[e.tenant] = \
                    by_tenant.get(e.tenant, 0) + e.cp_accounted
        ledger = {t: n for t, n in (cp.tenant_used or {}).items() if n}
        assert ledger == by_tenant, \
            f"tenant ledgers {ledger} != charged bytes {by_tenant}"
        hits, misses, probes = (self.stats.get(name) for name in
                                (CACHE_HITS, CACHE_MISSES, LINEAGE_PROBES))
        assert hits + misses == probes, \
            f"hits {hits} + misses {misses} != probes {probes}"
        index = self._index
        if index is None:
            return
        now = self._logical_time
        index.check(self._scan_resident(), now)

        def victim(candidates):
            return self.arbiter.select_victim(REGION_CP, candidates, now=now)

        indexed, oracle = victim(self._cp_candidates()), \
            victim(self._scan_candidates())
        assert indexed is oracle, \
            f"index victim {indexed!r} is not the scan's {oracle!r}"
        for tenant in {e.tenant for e in entries} - {None}:
            indexed = victim(index.own_candidates(tenant, now, None))
            oracle = victim(self._scan_candidates(tenant))
            assert indexed is oracle, (
                f"tenant {tenant!r}: index victim {indexed!r} is not "
                f"the scan's {oracle!r}"
            )

    def cached_count(self, backend: Optional[str] = None) -> int:
        """Number of CACHED entries, optionally restricted to a backend."""
        return sum(
            1 for e in self._entries.values()
            if e.is_cached and (backend is None or backend in e.payloads)
        )
