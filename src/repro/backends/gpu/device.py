"""GPU device memory: a first-fit address-space allocator.

Models ``cudaMalloc``/``cudaFree`` over a contiguous address space so that
*fragmentation is real*: repeated allocation/deallocation of mixed sizes
produces holes, allocations fail when no contiguous block fits even
though total free memory suffices, and defragmentation (compaction) is an
explicit, expensive operation — the cost structure that motivates the
paper's recycling design (§2.3, §4.2).
"""

from __future__ import annotations

from bisect import bisect
from typing import Optional

from repro.common.config import GpuConfig
from repro.common.errors import GpuError
from repro.memory.budget import align


class GpuDevice:
    """Contiguous device address space with first-fit allocation.

    Models the raw ``cudaMalloc``/``cudaFree`` address space beneath
    the unified memory manager (paper §4.2, Fig. 8), including the
    fragmentation that step 6 of Algorithm 1 defragments.
    """

    def __init__(self, config: GpuConfig) -> None:
        self.config = config
        self.capacity = config.device_memory
        #: sorted list of free (offset, size) holes.
        self._free: list[tuple[int, int]] = [(0, self.capacity)]
        #: offset -> size of live allocations.
        self._allocated: dict[int, int] = {}
        #: size of the largest hole, or ``None`` after a change to the
        #: holes that may have moved it (recomputed on the next query).
        self._largest: Optional[int] = self.capacity

    # -- queries -----------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return sum(self._allocated.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used_bytes

    @property
    def largest_free_block(self) -> int:
        largest = self._largest
        if largest is None:
            largest = self._largest = max(
                (size for _, size in self._free), default=0)
        return largest

    def fits(self, size: int) -> bool:
        """Whether :meth:`malloc` of ``size`` would succeed now."""
        return align(size, self.config.alignment) <= self.largest_free_block

    @property
    def fragmentation(self) -> float:
        """1 - largest_hole/free_bytes: 0 = contiguous, ->1 = shattered."""
        free = self.free_bytes
        if free == 0:
            return 0.0
        return 1.0 - self.largest_free_block / free

    def num_allocations(self) -> int:
        return len(self._allocated)

    def allocation_report(self) -> dict:
        """Accounting snapshot for leak checks (chaos property tests).

        ``consistent`` asserts the device invariant directly: live
        allocations plus free holes tile the address space exactly.
        """
        hole_bytes = sum(size for _, size in self._free)
        return {
            "num_allocations": self.num_allocations(),
            "used_bytes": self.used_bytes,
            "hole_bytes": hole_bytes,
            "consistent": self.used_bytes + hole_bytes == self.capacity,
        }

    # -- allocation ----------------------------------------------------------

    def malloc(self, size: int) -> Optional[int]:
        """First-fit allocate; returns the offset or ``None`` on failure."""
        if size <= 0:
            raise GpuError(f"invalid allocation size {size}")
        size = align(size, self.config.alignment)
        if self._largest is not None and size > self._largest:
            return None
        for i, (offset, hole) in enumerate(self._free):
            if hole >= size:
                if hole == self._largest:
                    self._largest = None
                if hole == size:
                    self._free.pop(i)
                else:
                    self._free[i] = (offset + size, hole - size)
                self._allocated[offset] = size
                return offset
        return None

    def free(self, offset: int) -> int:
        """Release an allocation, coalescing adjacent holes; returns size.

        Holes are never adjacent, so only the freed block's two
        neighbours can merge with it.
        """
        size = self._allocated.pop(offset, None)
        if size is None:
            raise GpuError(f"double free or invalid offset {offset}")
        holes = self._free
        i = bisect(holes, (offset, size))
        start, end = offset, offset + size
        if i < len(holes) and holes[i][0] == end:
            end += holes.pop(i)[1]
        if i and holes[i - 1][0] + holes[i - 1][1] == start:
            i -= 1
            start = holes[i][0]
            holes[i] = (start, end - start)
        else:
            holes.insert(i, (start, end - start))
        if self._largest is not None and end - start > self._largest:
            self._largest = end - start
        return size

    def defragment(self) -> int:
        """Compact all live allocations to the start of the address space.

        Returns the number of bytes moved (the caller charges copy time).
        Live offsets are remapped; callers must use the returned mapping.
        """
        moved = 0
        new_allocated: dict[int, int] = {}
        self.relocation_map: dict[int, int] = {}
        cursor = 0
        for offset in sorted(self._allocated):
            size = self._allocated[offset]
            if offset != cursor:
                moved += size
            self.relocation_map[offset] = cursor
            new_allocated[cursor] = size
            cursor += size
        self._allocated = new_allocated
        self._free = (
            [(cursor, self.capacity - cursor)] if cursor < self.capacity else []
        )
        self._largest = None
        return moved
