"""Configured capacity budgets for the canonical memory regions.

The static memory planner (``repro.analysis.memplan``) and the
placement feasibility check (``repro.runtime.placement``) both need to
know, *at compile time*, how many bytes each :class:`~repro.memory.region.MemoryRegion`
will be created with at runtime — without instantiating any manager.
This module is the single source of truth for that mapping: it mirrors,
byte for byte, the ``add_region`` calls made when a
:class:`~repro.core.session.Session` is constructed (by its
`LineageCache`, and for the lazily built Spark and GPU tiers by the
``add_*_region`` functions next to `BlockManager`, `SparkCacheManager`
and `GpuMemoryManager`) — five regions, the same five ``Session.arbiter.snapshot()``
reports.  CP intermediates live on handles, outside any ledger: the
buffer pool is not modelled.

It is also the one home of three facts those layers and the managers
share: the canonical region names, the device allocator's granule
round-up (:func:`align`) and a GPU instruction's working set
(:func:`gpu_working_set`).

It deliberately imports only ``repro.common.config`` and the IR node
type so that both the analysis layer and the runtime placement layer
can consume it without creating an import cycle (analysis already
imports placement for the opcode tables).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.common.config import MemphisConfig
from repro.compiler.ir import KIND_LITERAL, Hop

#: canonical region names registered by the memory managers.
REGION_CP = "CP"  #: driver-local lineage-cache payloads.
REGION_DISK = "DISK"  #: disk-evicted driver-cache binaries (§3.3).
REGION_SPARK_STORAGE = "SP_BLOCKS"  #: aggregate executor storage memory.
REGION_SPARK_CACHE = "SP_CACHE"  #: reuse share of Spark storage (§4.1).
REGION_GPU = "GPU"  #: device memory under the unified GPU manager.

#: regions owned by the shared substrate in multi-tenant mode
#: (``repro.server``): the driver lineage-cache tier and its disk spill
#: tier are the only regions whose ledgers are shared across sessions;
#: every other region stays session-private (one Spark cluster / GPU
#: per session).  The admission gate restricts a block's
#: plan demands to this subset before strict bulk reservation.
SHARED_REGIONS: tuple[str, ...] = (REGION_CP, REGION_DISK)


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
    * ``SP_BLOCKS`` — ``blockmanager.add_storage_region``: the
      *aggregate* executor storage memory (``storage_memory x
      num_executors``).
    * ``SP_CACHE`` — ``spark_cache.add_spark_cache_region``: the reuse
      share of Spark storage (§4.1), derived from the block-manager
      capacity.
    * ``GPU`` — ``memmanager.add_gpu_region``: device memory.
    """
    sp_blocks = int(config.spark.storage_memory) * config.spark.num_executors
    budgets = (
        RegionBudget(REGION_CP, config.cache.driver_cache_bytes,
                     config.cache.unlimited),
        RegionBudget(REGION_DISK, config.cache.disk_cache_bytes, False),
        RegionBudget(REGION_SPARK_STORAGE, sp_blocks, False),
        RegionBudget(
            REGION_SPARK_CACHE,
            int(sp_blocks * config.cache.spark_cache_fraction),
            config.cache.unlimited,
        ),
        RegionBudget(REGION_GPU, config.gpu.device_memory, False),
    )
    return {budget.name: budget for budget in budgets}


def align(nbytes: int, alignment: int) -> int:
    """``nbytes`` rounded up to whole device-allocation granules, at
    least one (CUDA allocates in ``GpuConfig.alignment`` = 512 B)."""
    return max(-(-nbytes // alignment), 1) * alignment


def gpu_working_set(hop: Hop, alignment: int) -> int:
    """Device bytes one GPU instruction needs live at once.

    Output allocation plus one upload per non-literal input, each
    rounded up to the allocator's granularity.  The placement guard
    (``runtime/placement.py``) and the static memory planner's MEM001
    (``repro.analysis.memplan``) both call this.
    """
    total = align(hop.output_bytes, alignment)
    for inp in hop.inputs:
        if inp.kind != KIND_LITERAL:
            total += align(inp.output_bytes, alignment)
    return total
