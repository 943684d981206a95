"""Cache eviction scoring policies: the single source of eviction order.

The paper's default is the extended Cost&Size policy (Eq. 1)::

    argmin_o (r_h(o) + r_m(o) + r_j(o)) * c(o) / s(o)

i.e. evict first the object with the lowest (references x compute-cost /
size) — cheap-to-recompute, large, rarely referenced objects go first.
LRU, LRC (least reference count), and MRD (most reference distance) are
provided as ablation baselines from the related work (§7).

Every policy exposes two scoring views over the same ordering idea:

* :meth:`score` over :class:`~repro.core.entry.CacheEntry` objects
  (driver-cache entries and the Spark cache tier's persisted RDDs);
* :meth:`score_pointer` over GPU free-list pointers, where the default
  policy is the paper's Eq. 2 ``T_a(o) + 1/h(o) + c(o)`` with terms
  normalised by the device clock and the candidate set's max cost.

Every memory manager selects victims through these policies via the
:class:`~repro.memory.arbiter.MemoryArbiter`; no eviction-scoring math
lives anywhere else.
"""

from __future__ import annotations

from typing import Protocol

from repro.common.config import EvictionPolicyName
from repro.core.entry import CacheEntry


class EvictionPolicy(Protocol):
    """Score function: LOWER score = evicted earlier."""

    name: str
    #: ``score(entry, now)`` moves only when *that entry* is touched
    #: (never with ``now`` or with other entries), so the entry's place
    #: in the victim order can be kept in a heap between touches
    #: (``repro.core.victim_index``).  Policies without it are scanned.
    indexable: bool

    def score(self, entry: CacheEntry, now: float) -> float:
        """Eviction priority of ``entry`` at logical time ``now``."""
        ...

    def score_pointer(self, ptr, now: float, max_cost: float) -> float:
        """Eviction priority of a GPU free-list pointer (Eq. 2 view).

        Among pointers that share ``(cached, lineage_height,
        compute_cost)`` it must be non-decreasing in ``last_access`` for
        every ``now`` and ``max_cost``: the GPU Free list
        (``backends/gpu/freelist.py``) scores only each such class's
        earliest-accessed pointer.
        """
        ...


class CostSizePolicy:
    """Paper Eq. 1: preserve high compute-cost-to-memory objects."""

    name = "cost_size"
    indexable = True

    def score(self, entry: CacheEntry, now: float) -> float:
        refs = entry.hits + entry.misses + entry.jobs
        return (refs + 1) * entry.compute_cost / max(entry.size, 1)

    def score_pointer(self, ptr, now: float, max_cost: float) -> float:
        """Eq. 2: ``T_a(o) + 1/h(o) + c(o)`` with normalized terms.

        Within a class only ``T_a`` varies: older pointers go first.
        """
        t_a = ptr.last_access / max(now, 1e-9)
        height_term = 1.0 / max(ptr.lineage_height, 1)
        cost_term = ptr.compute_cost / max(max_cost, 1e-9)
        return t_a + height_term + cost_term


class LruPolicy:
    """Classic least-recently-used."""

    name = "lru"
    indexable = True

    def score(self, entry: CacheEntry, now: float) -> float:
        return entry.last_access

    def score_pointer(self, ptr, now: float, max_cost: float) -> float:
        """Recency alone: older pointers go first, in a class or not."""
        return ptr.last_access


class LrcPolicy:
    """Least reference count (DAG-aware Spark baseline [127])."""

    name = "lrc"
    indexable = True

    def score(self, entry: CacheEntry, now: float) -> float:
        return float(entry.hits + entry.jobs)

    def score_pointer(self, ptr, now: float, max_cost: float) -> float:
        """A GPU pointer keeps no reference count, so every pointer ties:
        the victim is the first in Free-list order (sizes as filed, then
        release order), within a class as across classes."""
        return 0.0


class MrdPolicy:
    """Most reference distance [99]: evict objects not referenced for the
    longest logical distance, weighted by reference count."""

    name = "mrd"
    indexable = False  # the score reads ``now``: every tick reorders

    def score(self, entry: CacheEntry, now: float) -> float:
        distance = max(now - entry.last_access, 0.0)
        return (entry.hits + 1.0) / (distance + 1.0)

    def score_pointer(self, ptr, now: float, max_cost: float) -> float:
        """A GPU pointer keeps no reference count, so this is pure
        recency: the pointer unused for longest goes first, within a
        class as across classes."""
        distance = max(now - ptr.last_access, 0.0)
        return 1.0 / (distance + 1.0)


_POLICIES = {
    EvictionPolicyName.COST_SIZE: CostSizePolicy,
    EvictionPolicyName.LRU: LruPolicy,
    EvictionPolicyName.LRC: LrcPolicy,
    EvictionPolicyName.MRD: MrdPolicy,
}


def make_policy(name: EvictionPolicyName) -> EvictionPolicy:
    """Instantiate the policy selected in the configuration."""
    return _POLICIES[name]()
