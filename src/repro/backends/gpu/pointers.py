"""GPU pointer objects: reference-counted handles to device allocations.

A :class:`GpuPointer` carries the device offset/size, a host-side shadow
of the device contents (the simulator computes real values), and the
metadata the eviction policy (Eq. 2) needs: last access time, the height
of the producing lineage trace, and the analytical compute cost.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class GpuPointer:
    """A device allocation with simulator-side shadow data.

    Carries the reference count and the Eq. 2 scoring metadata
    (last access, lineage height, compute cost) the memory manager
    uses on the Free list (paper §4.2, Fig. 8).
    """

    __slots__ = (
        "id", "offset", "size", "shape", "data", "ref_count",
        "last_access", "lineage_height", "compute_cost", "freed",
        "cached", "free_list", "free_rec",
    )

    def __init__(self, ptr_id: int, offset: int, size: int,
                 shape: tuple[int, int] = (0, 0)) -> None:
        #: handed out by the owning memory manager's id space.
        self.id = ptr_id
        self.offset = offset
        self.size = size
        self.shape = shape
        self.data: Optional[np.ndarray] = None
        self.ref_count = 0
        self.last_access = 0.0
        self.lineage_height = 1
        self.compute_cost = 0.0
        self.freed = False
        #: whether a lineage-cache entry references this pointer; cached
        #: pointers are recycled only under memory pressure (§4.2).
        self.cached = False
        #: the Free list holding this pointer and its latest record
        #: there (``backends/gpu/freelist.py``); ``None`` off the list.
        self.free_list = None
        self.free_rec = None

    def refile(self) -> None:
        """Re-file a free pointer after ``last_access``, ``cached``,
        ``lineage_height`` or ``compute_cost`` moved (its Eq. 2 class or
        its recency); a write to those fields of a pointer that may be
        free must be followed by this call."""
        if self.free_list is not None:
            self.free_list.refile(self)

    def set_cached(self, cached: bool) -> None:
        """Mark whether a lineage-cache entry references this pointer."""
        self.cached = cached
        self.refile()

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
