"""GPU pointer objects: reference-counted handles to device allocations.

A :class:`GpuPointer` carries the device offset/size and the metadata
the eviction policy (Eq. 2) needs: last access time, the height of the
producing lineage trace, and the analytical compute cost.  The
host-side shadow of the device contents is the
:class:`~repro.backends.gpu.backend.GpuData` value that holds the
pointer.  A pointer refers to nothing else: the Free list knows which
pointers it holds, so a released pointer is no reference cycle.
"""

from __future__ import annotations


class GpuPointer:
    """A device allocation.

    Carries the reference count and the Eq. 2 scoring metadata
    (last access, lineage height, compute cost) the memory manager
    uses on the Free list (paper §4.2, Fig. 8).
    """

    __slots__ = (
        "id", "offset", "size", "ref_count", "last_access",
        "lineage_height", "compute_cost", "freed", "cached", "free_rec",
    )

    def __init__(self, ptr_id: int, offset: int, size: int) -> None:
        #: handed out by the owning memory manager's id space.
        self.id = ptr_id
        self.offset = offset
        self.size = size
        self.ref_count = 0
        self.last_access = 0.0
        self.lineage_height = 1
        self.compute_cost = 0.0
        self.freed = False
        #: whether a lineage-cache entry references this pointer; cached
        #: pointers are recycled only under memory pressure (§4.2).
        self.cached = False
        #: the stamp of this pointer's latest Free-list record
        #: (``backends/gpu/freelist.py``); ``None`` off the list.  A write
        #: to ``last_access``, ``cached``, ``lineage_height`` or
        #: ``compute_cost`` of a pointer that may be free must be
        #: followed by ``FreeList.refile`` on its manager's list.
        self.free_rec = None

    def retain(self) -> "GpuPointer":
        """Increment the live-variable reference count."""
        self.ref_count += 1
        return self

    def release(self) -> int:
        """Decrement the reference count; returns the remaining count."""
        if self.ref_count > 0:
            self.ref_count -= 1
        return self.ref_count

    def __repr__(self) -> str:
        state = "freed" if self.freed else f"rc={self.ref_count}"
        return f"GpuPointer#{self.id}(off={self.offset}, {self.size}B, {state})"
