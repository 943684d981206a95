"""Automatic parameter tuning of delay factor and storage level (§5.2).

The rewrite analyzes one block's execution frequency (nested loops,
function calls) and the presence of loop-dependent (non-reusable)
operations, then assigns:

* the *delay factor* ``n`` — defer caching until the n-th occurrence
  (``n = 1`` when >80% of a block's operations are reusable, Fig. 10);
* the Spark *storage level* — ``MEMORY_AND_DISK`` for blocks with high
  reuse potential (worth spilling), ``MEMORY_ONLY`` otherwise (avoid
  spilling things we will likely never reuse).
"""

from __future__ import annotations

from repro.common.config import StorageLevel


def tune_block(execution_frequency: int,
               reusable_fraction: float) -> tuple[int, StorageLevel]:
    """``(delay_factor, storage_level)`` of one block (Fig. 10), from
    how often it executes (product of enclosing loop counts) and the
    fraction of its operations that do not depend on loop variables."""
    if execution_frequency <= 1:
        # executes once: nothing repeats, defer caching aggressively
        delay = 4
    elif reusable_fraction > 0.8:
        delay = 1
    elif reusable_fraction > 0.4:
        delay = 2
    else:
        delay = 4
    level = (
        StorageLevel.MEMORY_AND_DISK if reusable_fraction >= 0.5
        else StorageLevel.MEMORY_ONLY
    )
    return delay, level
