"""Function-level (coarse-grained) reuse over the lineage cache (§3.3).

The body of :meth:`Session.function`'s wrapper: a call's outputs are
cached under a special lineage item of the function name and the input
lineages, so a repeated call with identical inputs skips the body
entirely, even when inputs and outputs span multiple backends.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.common.config import ReuseMode
from repro.common.simclock import HOST
from repro.common.stats import FUNC_HITS
from repro.compiler.ir import KIND_OP, data_hop, literal_hop
from repro.core.entry import BACKEND_CP, BACKEND_GPU, CacheEntry
from repro.lineage.item import LineageItem
from repro.runtime.handles import MatrixHandle

if TYPE_CHECKING:
    from repro.core.session import Session


def call_with_reuse(session: "Session", fname: str, fn: Callable,
                    args: tuple):
    """``fn(*args)``, served from the cache when the reuse mode allows."""
    if session.config.reuse_mode not in (
        ReuseMode.FULL, ReuseMode.COARSE_ONLY
    ):
        return fn(*args)
    session._activate()
    key = _function_key(session, fname, args)
    entry = session.cache.probe(key)
    if entry is not None:
        outputs = _restore_outputs(session, entry)
        if outputs is not None:
            session.stats.inc(FUNC_HITS)
            return outputs
    t0 = session.clock.now(HOST)
    result = fn(*args)
    _cache_outputs(session, key, result, t0)
    return result


def _function_key(session: "Session", fname: str,
                  args: tuple) -> LineageItem:
    """The call's canonical ``func:`` item, so a repeated call probes by
    identity."""
    interner = session.lineage_interner
    items = []
    for arg in args:
        if isinstance(arg, MatrixHandle):
            if arg.lineage is None:
                session.evaluate([arg])
            items.append(arg.lineage)
        else:
            items.append(interner.literal(arg))
    return interner.function(fname, tuple(items))


def _cache_outputs(session: "Session", key: LineageItem, result,
                   t0: float) -> None:
    outputs = result if isinstance(result, tuple) else (result,)
    handles = [o for o in outputs if isinstance(o, MatrixHandle)]
    pending = [h for h in handles if h.hop.kind == KIND_OP]
    if pending:
        session.evaluate(pending)
    snapshot = []
    for out in outputs:
        if isinstance(out, MatrixHandle):
            snapshot.append(
                ("handle", out.lineage, dict(out.payloads), out.shape)
            )
        else:
            snapshot.append(("value", out))
    elapsed = session.clock.now(HOST) - t0
    cost = max(elapsed * session.config.cpu.flops_per_s, 1.0)
    size = sum(
        payloads.get(BACKEND_CP).nbytes
        for kind, *rest in snapshot
        if kind == "handle"
        for payloads in [rest[1]]
        if payloads.get(BACKEND_CP) is not None
    )
    session.cache.put(key, (snapshot, isinstance(result, tuple)),
                      BACKEND_CP, max(size, 8), cost, delay_factor=1)


def _restore_outputs(session: "Session", entry: CacheEntry):
    payload = entry.get_payload(BACKEND_CP)
    if payload is None:
        return None
    snapshot, was_tuple = payload
    outputs = []
    for record in snapshot:
        if record[0] == "value":
            outputs.append(record[1])
            continue
        _, lineage, payloads, shape = record
        payloads = dict(payloads)
        gpu_payload = payloads.get(BACKEND_GPU)
        if gpu_payload is not None and gpu_payload.ptr.freed:
            payloads.pop(BACKEND_GPU)
        if not payloads:
            return None  # all copies lost: treat as a miss
        handle = MatrixHandle(session, literal_hop(0.0, session.ids))
        handle.hop = data_hop(handle, shape)
        gpu_payload = payloads.get(BACKEND_GPU)
        handle.bind(lineage, payloads)
        if gpu_payload is not None:
            session.gpu.memory.reuse_from_free(gpu_payload.ptr)
            session._attach_gpu_finalizer(handle.hop, gpu_payload.ptr)
        outputs.append(handle)
    return tuple(outputs) if was_tuple else outputs[0]
