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

from dataclasses import dataclass

from repro.common.config import StorageLevel


@dataclass
class ProgramBlock:
    """Static description of one basic block for the tuning pass."""

    name: str
    #: how often the block executes (product of enclosing loop counts).
    execution_frequency: int = 1
    #: total operator count of the block.
    num_ops: int = 1
    #: operators depending on loop variables (not reusable across iters).
    num_loop_dependent_ops: int = 0

    @property
    def reusable_fraction(self) -> float:
        if self.num_ops <= 0:
            return 0.0
        return 1.0 - self.num_loop_dependent_ops / self.num_ops


@dataclass
class BlockTuning:
    """Tuning decision for one block."""

    delay_factor: int
    storage_level: StorageLevel


def tune_block(block: ProgramBlock) -> BlockTuning:
    """Assign delay factor and storage level for one block (Fig. 10)."""
    frac = block.reusable_fraction
    if block.execution_frequency <= 1:
        # executes once: nothing repeats, defer caching aggressively
        delay = 4
    elif frac > 0.8:
        delay = 1
    elif frac > 0.4:
        delay = 2
    else:
        delay = 4
    level = (
        StorageLevel.MEMORY_AND_DISK if frac >= 0.5
        else StorageLevel.MEMORY_ONLY
    )
    return BlockTuning(delay, level)

