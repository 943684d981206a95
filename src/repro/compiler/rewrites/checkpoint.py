"""Workload-aware RDD checkpoint placement (§5.2).

Two rewrites from the paper:

1. **Shared-job checkpointing** — within one DAG, a Spark-placed hop
   consumed by two or more downstream Spark jobs is persisted after the
   last shared operator, so overlapping jobs do not recompute it.
2. **Loop checkpointing** — in iterative algorithms the loop-updated
   distributed variables (e.g. the factor ``W`` in PNMF, Fig. 9(c))
   create ever-growing operator graphs under lazy evaluation; each
   iteration's update is checkpointed so jobs only execute one
   iteration's worth of work.  The loop rewrite is exposed as a
   predicate used by the session's loop context manager.
"""

from __future__ import annotations

from repro.common.config import MemphisConfig
from repro.compiler.ir import KIND_OP, Hop
from repro.compiler.rewrites.async_ops import _all_nodes, consumers_map
from repro.core.entry import BACKEND_SP


def place_shared_checkpoints(roots: list[Hop], config: MemphisConfig,
                             consumers: dict[int, list[Hop]] | None = None,
                             nodes: list[Hop] | None = None) -> set[int]:
    """Rewrite 1: the ids of the Spark hops shared by multiple Spark
    consumers, to persist."""
    if not config.enable_checkpoint_rewrite:
        return set()
    if nodes is None:
        nodes = _all_nodes(roots)
    if consumers is None:
        consumers = consumers_map(roots, nodes)
    return {hop.id for hop in nodes
            if hop.kind == KIND_OP and hop.placement == BACKEND_SP
            and sum(c.placement == BACKEND_SP
                    for c in consumers.get(hop.id, [])) >= 2}


def should_checkpoint_loop_var(shape: tuple[int, int],
                               config: MemphisConfig) -> bool:
    """Rewrite 2 predicate: checkpoint a loop-updated variable when it is
    distributed (worst-case size above the operation memory budget)."""
    if not config.enable_checkpoint_rewrite:
        return False
    nbytes = shape[0] * shape[1] * 8
    return nbytes > config.cpu.operation_memory_bytes
