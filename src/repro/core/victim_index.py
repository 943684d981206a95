"""The driver-cache victim index: who is evicted next, without a scan.

Eq. 1 and §3.3 of the paper define *which* CP object leaves; this module
only finds it.  For a policy whose score moves only when the entry
itself is touched (``EvictionPolicy.indexable``) the victim order is kept
in one binary heap per ``entry.tenant`` of ``(score, seq, entry)``
records, maintained lazily:

* a mutation only flags the entry (:meth:`VictimIndex.touch`) and
  appends it to a list — no scoring, no heap work on the probe/put path;
* when a victim is wanted the flagged entries are re-scored and pushed,
  and stale records are popped as they reach a heap's top.

**Tie rule.**  Equal scores leave in creation order: ``seq`` is stamped
when the cache creates the entry, which is the order of its entry dict,
which is what ``min()`` over a full scan returns.  The per-tenant tops
are handed to the arbiter sorted by ``seq`` for the same reason.

**Validity rule.**  A record counts iff it is its entry's *latest* one
(``entry.victim_rec is record``) and the entry is CP-resident *now* (the
scan's own predicate, so evict / spill / invalidate need no hook).
Scores do not only rise — a larger SP payload grows ``size`` and Eq. 1
divides by it — so "pop, re-score, re-push if larger" would be unsound:
every touch gets a fresh record and the older ones are dead from then on.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Optional

from repro.core.entry import BACKEND_CP, VICTIM_DIRTY, CacheEntry, EntryStatus

#: the heaps are rebuilt from their live records once as many records
#: were pushed as survived the previous rebuild, plus this slack — so
#: they never hold more than twice the live count plus it.
_COMPACT_SLACK = 64

_CACHED = EntryStatus.CACHED


def _seq(entry: CacheEntry) -> int:
    return entry.seq


def _live(rec: tuple) -> bool:
    """The validity rule; ``is_cached`` spelt without the property."""
    entry = rec[2]
    return entry.victim_rec is rec and BACKEND_CP in entry.payloads \
        and entry.status is _CACHED


class VictimIndex:
    """Per-tenant lazy heaps over the CP-resident entries of one cache."""

    __slots__ = ("_score", "_heaps", "_budget", "_dirty")

    def __init__(self, policy) -> None:
        self._score = policy.score
        #: tenant (``None`` on private caches) -> heap of records.
        self._heaps: dict[Optional[str], list[tuple]] = {}
        #: records that may still be pushed before the next compaction.
        self._budget = _COMPACT_SLACK
        #: entries touched since the last victim query.
        self._dirty: list[CacheEntry] = []

    # -- maintenance ---------------------------------------------------------

    def touch(self, entry: CacheEntry) -> None:
        """Note that a score input or the CP residency of ``entry`` moved."""
        if entry.victim_rec is not VICTIM_DIRTY \
                and BACKEND_CP in entry.payloads:
            entry.victim_rec = VICTIM_DIRTY
            self._dirty.append(entry)

    def forget(self, entry: CacheEntry) -> None:
        """Kill every record of ``entry`` (it left the cache's entry dict)."""
        if entry.victim_rec is VICTIM_DIRTY:
            self._dirty.remove(entry)
        entry.victim_rec = None

    def clear(self) -> None:
        self._dirty.clear()
        self._heaps.clear()
        self._budget = _COMPACT_SLACK

    def _flush(self, now: float) -> None:
        """Re-score the touched entries and bound the heaps' dead share."""
        score = self._score
        heaps = self._heaps
        dirty = self._dirty
        for entry in dirty:
            if BACKEND_CP in entry.payloads and entry.status is _CACHED:
                heap = heaps.get(entry.tenant)
                if heap is None:
                    heap = heaps[entry.tenant] = []
                rec = entry.victim_rec = (score(entry, now), entry.seq, entry)
                heappush(heap, rec)
            else:
                entry.victim_rec = None
        self._budget -= len(dirty)
        dirty.clear()
        if self._budget < 0:
            live = 0
            for heap in heaps.values():
                heap[:] = filter(_live, heap)
                heapify(heap)
                live += len(heap)
            self._budget = live + _COMPACT_SLACK

    # -- victim queries ------------------------------------------------------

    def _top(self, heap: list, skip_pinned: bool,
             skip: Optional[CacheEntry] = None) -> Optional[CacheEntry]:
        """The heap's live minimum; skipped entries stay in the heap."""
        aside = []
        found = None
        while heap:
            rec = heap[0]
            if not _live(rec):
                heappop(heap)  # re-scored since, or not resident now
                continue
            entry = rec[2]
            if entry is skip or (skip_pinned and entry.pinned):
                aside.append(heappop(heap))
                continue
            found = entry
            break
        for rec in aside:
            heappush(heap, rec)
        return found

    def candidates(self, now: float,
                   evictable: Optional[Callable[[CacheEntry], bool]] = None
                   ) -> list[CacheEntry]:
        """The live top of each tenant's heap, in creation order.

        ``evictable`` is the active scope's fair-share filter; it depends
        only on an entry's tenant (fixed at creation) and the region
        ledgers, so it is asked once per heap.  Pinned entries are
        skipped exactly when a scope is active, as the scan does.
        """
        if self._dirty:
            self._flush(now)
        tops = []
        for heap in self._heaps.values():
            if not heap:
                continue
            if evictable is not None and not evictable(heap[0][2]):
                continue
            top = self._top(heap, evictable is not None)
            if top is not None:
                tops.append(top)
        if len(tops) > 1:
            tops.sort(key=_seq)
        return tops

    def own_candidates(self, tenant: Optional[str], now: float,
                       skip: Optional[CacheEntry]) -> list[CacheEntry]:
        """The tenant's own next unpinned victim other than ``skip``."""
        if self._dirty:
            self._flush(now)
        heap = self._heaps.get(tenant)
        top = self._top(heap, True, skip) if heap else None
        return [] if top is None else [top]

    # -- audit ---------------------------------------------------------------

    def check(self, resident: list[CacheEntry], now: float) -> None:
        """Assert the live records are exactly the CP-resident entries,
        each in its tenant's heap at its current score (after a flush) —
        a mutation that skipped :meth:`touch` fails here."""
        self._flush(now)
        live: set[int] = set()
        for tenant, heap in self._heaps.items():
            for rec in filter(_live, heap):
                entry = rec[2]
                assert entry.tenant == tenant, (
                    f"victim index: {entry!r} of tenant {entry.tenant!r} "
                    f"in heap {tenant!r}"
                )
                assert rec[0] == self._score(entry, now), (
                    f"victim index: {entry!r} recorded at {rec[0]!r}, "
                    f"scores {self._score(entry, now)!r} (missed touch)"
                )
                live.add(id(entry))
        missing = [e for e in resident if id(e) not in live]
        assert not missing, \
            f"victim index: resident entries without a live record: {missing}"
        assert len(live) == len(resident), (
            f"victim index: {len(live)} live records for "
            f"{len(resident)} resident entries"
        )
