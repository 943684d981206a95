"""The GPU *Free* list: size -> Eq. 2 class -> recency heap (paper Fig. 8).

Paper §4.2 keeps free pointers in "a hash map from size to a
score-ordered queue".  Eq. 2 normalises by the device clock and by the
candidate set's maximum compute cost, so no static order over all the
pointers of one size exists.  One does exist within a *class*: the
pointers of one size that share ``(cached, lineage_height,
compute_cost)``.  Every pointer policy in ``core/policies.py`` is
non-decreasing in ``last_access`` among them, whatever ``now`` and
``max_cost`` are, so the smallest ``last_access`` scores lowest.  A
victim query therefore scores each class's top, never every pointer.

* **Records.**  A class keeps a binary heap of ``(last_access,
  free_seq, tick, ptr, key)`` records, ``key`` naming the class (not
  the class itself: a dropped class must not be a reference cycle).
  ``free_seq`` is stamped when the pointer enters the list (release
  order) and survives re-filing; ``tick`` is unique per record, so a
  comparison never reaches ``ptr``.
* **Validity rule.**  A record counts iff it is its pointer's latest
  one (``ptr.free_rec is rec``).  Leaving the list clears ``free_rec``,
  and a pointer whose class or recency moves gets a fresh record
  (:meth:`FreeList.refile`), so no ``list.remove`` is ever needed.  Dead
  records are dropped when they surface, and a class heap is rebuilt
  from its live records once it holds more than twice its members plus
  a constant.
* **Tie rule.**  The scan this replaces visited sizes in the insertion
  order of a size -> list dict (a size re-entered at the end when its
  list emptied and refilled) and pointers in release order, and ``min``
  kept the first minimum.  :attr:`FreeList.pools` keeps the same dict
  order, class tops are handed over in ``free_seq`` order within a size,
  and a class's top is its earliest-released pointer among those that
  score exactly the class minimum.  Equal stamps tie and already pop in
  release order, so only the first pointer stamped later than the top
  is scored against it; if it ties too (a float tie between distinct
  stamps, or LRC's constant score) the class is scanned.  Only a class
  whose lowest score is the scope's minimum can hold the victim, so a
  query scores each class once, plus that runner-up in those classes.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable

#: a class heap is rebuilt from its live records once it holds more
#: than twice its members plus this many records.
_SLACK = 8


def _seq(rec: tuple) -> int:
    return rec[1]


def _top_seq(top: tuple) -> int:
    return top[0][1]


def _live(rec: tuple) -> bool:
    return rec[3].free_rec is rec


class FreeClass:
    """The free pointers of one size sharing ``(cached, height, cost)``."""

    __slots__ = ("key", "cached", "cost", "heap", "members")

    def __init__(self, key: tuple) -> None:
        self.key = key
        self.cached, _, self.cost = key
        self.heap: list[tuple] = []
        self.members = 0

    def first(self) -> tuple:
        """The live record with the least stamp (the earliest released
        among equal stamps): the class's lowest score."""
        heap = self.heap
        while not _live(heap[0]):
            heappop(heap)
        return heap[0]

    def top(self, first: tuple, best: float, score: Callable) -> tuple:
        """The record the scan would pick among this class's pointers,
        ``first`` scoring ``best``."""
        if self.members == 1:
            return first
        # equal stamps score equal and already sit in release order: the
        # runner-up that matters is the first live record stamped later
        heap = self.heap
        aside = []
        while heap and (heap[0][0] == first[0] or not _live(heap[0])):
            rec = heappop(heap)
            if _live(rec):
                aside.append(rec)
        runner_up = heap[0] if heap else None
        for rec in aside:
            heappush(heap, rec)
        if runner_up is None or score(runner_up[3]) != best:
            return first  # scores only rise from here on
        return min((rec for rec in heap
                    if _live(rec) and score(rec[3]) == best), key=_seq)


class FreeList:
    """The Free list of one GPU memory manager."""

    __slots__ = ("pools", "nbytes", "_tick")

    def __init__(self) -> None:
        #: size -> class key -> class; sizes in the order their pool
        #: last became non-empty, classes only while they have members.
        self.pools: dict[int, dict[tuple, FreeClass]] = {}
        self.nbytes = 0
        self._tick = 0

    def add(self, ptr) -> None:
        """``ptr`` enters the list (its last reference was released)."""
        pool = self.pools.get(ptr.size)
        if pool is None:
            pool = self.pools[ptr.size] = {}
        self._tick += 1
        self._file(pool, ptr,
                   (ptr.cached, ptr.lineage_height, ptr.compute_cost),
                   self._tick)
        ptr.free_list = self
        self.nbytes += ptr.size

    def remove(self, ptr) -> bool:
        """Take ``ptr`` off the list; ``False`` when it was not on it."""
        rec = ptr.free_rec
        if rec is None:
            return False
        ptr.free_rec = ptr.free_list = None
        pool = self.pools[ptr.size]
        cls = pool[rec[4]]
        cls.members -= 1
        if not cls.members:
            del pool[cls.key]
            if not pool:
                del self.pools[ptr.size]
        elif cls.heap[0] is rec:
            heappop(cls.heap)  # a victim usually sits on top
        self.nbytes -= ptr.size
        return True

    def refile(self, ptr) -> None:
        """Re-file ``ptr`` after its class or ``last_access`` moved."""
        rec = ptr.free_rec
        key = (ptr.cached, ptr.lineage_height, ptr.compute_cost)
        if rec[0] == ptr.last_access and rec[4] == key:
            return
        pool = self.pools[ptr.size]
        cls = pool[rec[4]]
        cls.members -= 1
        if not cls.members and rec[4] != key:
            del pool[rec[4]]  # the size keeps its place in ``pools``
        self._file(pool, ptr, key, rec[1])

    def _file(self, pool: dict, ptr, key: tuple, seq: int) -> None:
        cls = pool.get(key)
        if cls is None:
            cls = pool[key] = FreeClass(key)
        self._tick += 1
        rec = ptr.free_rec = (ptr.last_access, seq, self._tick, ptr, key)
        heap = cls.heap
        heappush(heap, rec)
        cls.members += 1
        if len(heap) > 2 * cls.members + _SLACK:
            heap[:] = filter(_live, heap)
            heapify(heap)

    @staticmethod
    def tops(groups: list[list[FreeClass]], score: Callable) -> dict:
        """The class tops of ``groups`` (the classes of one scope, size by
        size in ``pools`` order), in the order the scan visited them,
        each mapped to its score; a class above the scope's minimum
        hands over its first record unchecked for ties."""
        scored = [[(cls, rec, score(rec[3]))
                   for cls in classes for rec in (cls.first(),)]
                  for classes in groups]
        low = min(best for found in scored for _, _, best in found)
        out = {}
        for found in scored:
            recs = [(cls.top(rec, best, score) if best == low else rec, best)
                    for cls, rec, best in found]
            if len(recs) > 1:
                recs.sort(key=_top_seq)
            for rec, best in recs:
                out[rec[3]] = best
        return out

    def pointers(self) -> list:
        """Every free pointer in the scan's order (sizes as in ``pools``,
        then release order), checking each class's member count."""
        out = []
        for size, pool in self.pools.items():
            recs = []
            for key, cls in pool.items():
                live = [rec for rec in cls.heap if _live(rec)]
                assert len(live) == cls.members > 0, (
                    f"free list: class {key} of {size} B counts "
                    f"{cls.members} members, holds {len(live)}")
                recs += live
            recs.sort(key=_seq)
            out += (rec[3] for rec in recs)
        return out
