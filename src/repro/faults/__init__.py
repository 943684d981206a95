"""Deterministic fault injection + lineage-based recovery (``repro.faults``).

MEMPHIS's premise is that lineage makes intermediates cheap to
reconstruct; this package is the proof harness.  A seeded
:class:`FaultPlan` schedules failures against the simulated runtime —
Spark task failures and executor loss, GPU allocation failures,
federated worker timeouts and slowdowns, cache spill/restore I/O errors,
and outright loss of cached intermediates — and the backends recover
through the same lineage machinery the paper describes: task retry with
partition recomputation, shuffle-file invalidation, GPU evict-and-retry,
federated retry-with-backoff (optionally quorum-degraded), and
interpreter-level recompute-from-lineage.

Faults never perturb numerics: every recovery replays the identical
kernels, so a faulted run converges to outputs bit-equal to the
fault-free run (the chaos suite in ``tests/test_chaos.py`` asserts
exactly this).  With no plan active the runtime holds
:data:`NULL_INJECTOR` and behaves byte-for-byte like a build without
this package.

See ``docs/FAULTS.md`` for the fault taxonomy, schedule spec format,
and per-backend recovery semantics.
"""

from repro.faults.injector import (
    NULL_INJECTOR,
    ArmedFault,
    FaultInjector,
    NullInjector,
)
from repro.faults.plan import (
    KIND_CACHE_LOST,
    KIND_EXECUTOR_LOSS,
    KIND_FED_SLOW,
    KIND_FED_TIMEOUT,
    KIND_GPU_ALLOC,
    KIND_INDEX_MEANING,
    KIND_RESTORE_IO,
    KIND_SPARK_TASK,
    KIND_SPILL_IO,
    KINDS,
    FaultPlan,
    FaultSpec,
)

__all__ = [
    "ArmedFault",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "KINDS",
    "KIND_CACHE_LOST",
    "KIND_EXECUTOR_LOSS",
    "KIND_FED_SLOW",
    "KIND_FED_TIMEOUT",
    "KIND_GPU_ALLOC",
    "KIND_INDEX_MEANING",
    "KIND_RESTORE_IO",
    "KIND_SPARK_TASK",
    "KIND_SPILL_IO",
    "NULL_INJECTOR",
    "NullInjector",
]
