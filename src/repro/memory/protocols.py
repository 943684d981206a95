"""Entry protocol consumed by the arbiter and the eviction policies.

Anything a region manages must be *scoreable*: the four ablation
policies of ``core/policies.py`` read the same metadata fields off
every candidate — lineage-cache entries, cached Spark partitions.
GPU free-list pointers use the pointer variant of the same policies
(``score_pointer``, Eq. 2 normalisation).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable


@runtime_checkable
class Evictable(Protocol):
    """A region-managed object the eviction policies can score.

    The fields mirror :class:`~repro.core.entry.CacheEntry`'s policy
    metadata; backend adapters (cached partitions) expose the same
    names so every region shares one scoring registry.
    """

    size: int
    compute_cost: float
    hits: int
    misses: int
    jobs: int
    last_access: float
