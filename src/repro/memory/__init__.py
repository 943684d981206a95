"""Unified memory-arbitration substrate (paper pillar 2, §3.3/§4.2/§5.2).

One coordinated hierarchy instead of three silos: the driver lineage
cache, the Spark block manager / RDD cache tier, and the GPU unified
memory manager all route *reservations* and *victim selection* (the
``core/policies.py`` scoring registry) through a shared
:class:`MemoryArbiter` and count bytes on their own per-backend
:class:`MemoryRegion` ledger (the reserve/commit/release protocol),
while keeping their backend-specific physics (disk spilling, shuffle
partition granularity, free-list recycling) local.

The arbiter is also the coordination point for the paper's *holistic*
behaviours: the spill-vs-drop cost decision and the admission predicate
of the multi-tenant gate.
"""

from repro.memory.arbiter import MemoryArbiter
from repro.memory.budget import (
    REGION_CP,
    REGION_DISK,
    REGION_GPU,
    REGION_SPARK_CACHE,
    REGION_SPARK_STORAGE,
    SHARED_REGIONS,
    RegionBudget,
    region_capacities,
    shared_demands,
)
from repro.memory.region import MemoryRegion

__all__ = [
    "MemoryArbiter",
    "MemoryRegion",
    "RegionBudget",
    "region_capacities",
    "SHARED_REGIONS",
    "shared_demands",
    "REGION_CP",
    "REGION_DISK",
    "REGION_SPARK_STORAGE",
    "REGION_SPARK_CACHE",
    "REGION_GPU",
]
