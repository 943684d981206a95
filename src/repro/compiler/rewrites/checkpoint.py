"""Workload-aware RDD checkpoint placement (§5.2): loop checkpointing.

In iterative algorithms the loop-updated distributed variables (e.g.
the factor ``W`` in PNMF, Fig. 9(c)) create ever-growing operator graphs
under lazy evaluation; each iteration's update is checkpointed so jobs
only execute one iteration's worth of work.  The rewrite is exposed as a
predicate used by the session's loop context manager.  The paper's
other checkpoint rewrite, persisting a Spark hop that two or more Spark
jobs of one DAG share, is a bit of
:func:`repro.compiler.plan.block_flags`.
"""

from __future__ import annotations

from repro.common.config import MemphisConfig


def should_checkpoint_loop_var(shape: tuple[int, int],
                               config: MemphisConfig) -> bool:
    """Checkpoint a loop-updated variable when it is distributed
    (worst-case size above the operation memory budget)."""
    if not config.enable_checkpoint_rewrite:
        return False
    nbytes = shape[0] * shape[1] * 8
    return nbytes > config.cpu.operation_memory_bytes
