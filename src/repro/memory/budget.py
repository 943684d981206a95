"""Configured capacity budgets for the canonical memory regions.

The static memory planner (``repro.analysis.memplan``) and the
placement feasibility check (``repro.runtime.placement``) both need to
know, *at compile time*, how many bytes each :class:`~repro.memory.region.MemoryRegion`
will be created with at runtime — without instantiating any manager.
This module is the single source of truth for that mapping: it mirrors,
byte for byte, the ``add_region`` calls made by the managers
(`LineageCache`, `BlockManager`/`SparkCacheManager`,
`GpuMemoryManager`) when a :class:`~repro.core.session.Session` is
constructed — five regions, the same five ``Session.arbiter.snapshot()``
reports.  CP intermediates live on handles, outside any ledger: the
buffer pool is not modelled.

It deliberately imports only ``repro.common.config`` so that both the
analysis layer and the runtime placement layer can consume it without
creating an import cycle (analysis already imports placement for the
opcode tables).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.common.config import MemphisConfig


#: regions owned by the shared substrate in multi-tenant mode
#: (``repro.server``): the driver lineage-cache tier and its disk spill
#: tier are the only regions whose ledgers are shared across sessions;
#: every other region stays session-private (one Spark cluster / GPU
#: per session).  The admission gate restricts a block's
#: plan demands to this subset before strict bulk reservation.
SHARED_REGIONS: tuple[str, ...] = ("CP", "DISK")


def shared_demands(demands: dict[str, int]) -> dict[str, int]:
    """The subset of a plan's region demands the shared substrate owns."""
    return {
        name: nbytes for name, nbytes in demands.items()
        if name in SHARED_REGIONS
    }


class RegionBudget(NamedTuple):
    """Compile-time view of one region's configured capacity."""

    #: canonical region name (``repro.memory.REGION_*``).
    name: str
    #: capacity in bytes the region will be registered with.
    capacity: int
    #: ``True`` when the ledger does not enforce the capacity
    #: (``MemoryRegion.unlimited``): demand beyond ``capacity`` is
    #: admitted rather than evicted, so static peaks must not be
    #: clamped for these regions.
    unlimited: bool


def region_capacities(config: MemphisConfig) -> dict[str, RegionBudget]:
    """Per-region budgets a session built from ``config`` will enforce.

    Mirrors the runtime registrations:

    * ``CP``/``DISK`` — ``LineageCache.__init__`` (driver payload tier
      and its disk spill tier, §3.3).
    * ``SP_BLOCKS`` — ``BlockManager.__init__``: the *aggregate*
      executor storage memory (``storage_memory x num_executors``).
    * ``SP_CACHE`` — ``SparkCacheManager.__init__``: the reuse share of
      Spark storage (§4.1), derived from the block-manager capacity.
    * ``GPU`` — ``GpuMemoryManager.__init__``: device memory.
    """
    # local alias avoids importing repro.memory (which imports this
    # module at the end of its __init__)
    sp_blocks = int(config.spark.storage_memory) * config.spark.num_executors
    return {
        "CP": RegionBudget("CP", config.cache.driver_cache_bytes,
                           config.cache.unlimited),
        "DISK": RegionBudget("DISK", config.cache.disk_cache_bytes, False),
        "SP_BLOCKS": RegionBudget("SP_BLOCKS", sp_blocks, False),
        "SP_CACHE": RegionBudget(
            "SP_CACHE", int(sp_blocks * config.cache.spark_cache_fraction),
            config.cache.unlimited,
        ),
        "GPU": RegionBudget("GPU", config.gpu.device_memory, False),
    }
