"""Asynchronous operator rewrites: ``prefetch`` and ``broadcast`` (§5.1).

*Prefetch placement* traverses the plan and identifies operators that
trigger remote jobs through ``collect`` / device-to-host copies — i.e.
Spark- or GPU-placed hops with at least one consumer on a different
backend.  These roots of remote operator chains are flagged; at runtime
the scheduler triggers them asynchronously and returns future objects,
overlapping remote computation and data transfer with the host
instruction stream.

*Broadcast placement* flags CP-placed hops that feed Spark consumers so
the broadcast variable is partitioned and registered asynchronously as
the last operator of the local chain.
"""

from __future__ import annotations

from repro.backends.spark.backend import SPARK_OPCODES
from repro.common.config import MemphisConfig
from repro.compiler.ir import KIND_OP, Hop
from repro.core.entry import BACKEND_CP, BACKEND_GPU, BACKEND_SP


def _all_nodes(roots: list[Hop]) -> list[Hop]:
    """Every node reachable from ``roots``, each exactly once.

    Flag passes accept a precomputed node list (``nodes``) so one
    traversal can serve the whole rewrite pipeline; this is the
    fallback when a pass is called standalone.
    """
    out: list[Hop] = []
    seen: set[int] = set()
    for root in roots:
        for hop in root.iter_dag():
            if hop.id not in seen:
                seen.add(hop.id)
                out.append(hop)
    return out


def consumers_map(roots: list[Hop],
                  nodes: list[Hop] | None = None) -> dict[int, list[Hop]]:
    """hop id -> list of consumer hops within this DAG."""
    out: dict[int, list[Hop]] = {}
    for hop in (nodes if nodes is not None else _all_nodes(roots)):
        for inp in hop.inputs:
            out.setdefault(inp.id, []).append(hop)
    return out


def place_prefetch(roots: list[Hop], config: MemphisConfig,
                   consumers: dict[int, list[Hop]] | None = None,
                   nodes: list[Hop] | None = None) -> set[int]:
    """The ids of the remote-chain roots, to prefetch asynchronously.

    ``consumers`` and ``nodes`` let the caller share one
    :func:`consumers_map` and one DAG traversal across all the flag
    passes (none of them change DAG structure).
    """
    placed: set[int] = set()
    if not config.enable_async_ops:
        return placed
    if nodes is None:
        nodes = _all_nodes(roots)
    if consumers is None:
        consumers = consumers_map(roots, nodes)
    root_ids = {r.id for r in roots}
    collect_limit = config.cpu.operation_memory_bytes // 8
    for hop in nodes:
        if hop.kind != KIND_OP:
            continue
        if hop.placement == BACKEND_SP:
            cons = consumers.get(hop.id, [])
            crosses = any(c.placement != BACKEND_SP for c in cons)
            # small unconsumed roots are about to be collected by the
            # caller; aggregates ARE actions: "this rewrite flags all
            # other Spark actions for asynchronous execution" (§5.1)
            small_root = (hop.id in root_ids and not cons
                          and hop.output_bytes <= collect_limit)
            if (crosses or small_root
                    or SPARK_OPCODES.get(hop.opcode) == "action"):
                placed.add(hop.id)
        elif hop.placement == BACKEND_GPU:
            cons = consumers.get(hop.id, [])
            if any(c.placement == BACKEND_CP for c in cons):
                placed.add(hop.id)
    return placed


def place_broadcast(roots: list[Hop], config: MemphisConfig,
                    consumers: dict[int, list[Hop]] | None = None,
                    nodes: list[Hop] | None = None) -> set[int]:
    """The ids of the CP-placed hops feeding Spark consumers, to
    broadcast asynchronously."""
    if not config.enable_async_ops:
        return set()
    bc_limit = config.spark.driver_memory // 4
    if nodes is None:
        nodes = _all_nodes(roots)
    if consumers is None:
        consumers = consumers_map(roots, nodes)
    return {hop.id for hop in nodes
            if hop.kind == KIND_OP and hop.placement == BACKEND_CP
            and hop.output_bytes <= bc_limit
            and any(c.placement == BACKEND_SP
                    for c in consumers.get(hop.id, []))}
