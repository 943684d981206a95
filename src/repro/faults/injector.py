"""The runtime side of fault injection: arming, drawing, and recording.

A :class:`FaultInjector` compiles a :class:`~repro.faults.plan.FaultPlan`
into per-kind occurrence tables and exposes one *draw point* per fault
site in the runtime (Spark task launch, Spark job, GPU allocation,
cache spill/restore, interpreter instruction).  Each draw advances that
kind's occurrence counter exactly once, so the sequence of draws — and
therefore the fault schedule — is a deterministic function of the program
and the plan.

Zero overhead when disabled: every injected backend holds
:data:`NULL_INJECTOR` (class attribute ``enabled = False``) when no plan
is active, and every hot-path hook is guarded by ``if faults.enabled:``
— the same pattern as ``repro.obs.NULL_TRACER``.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.common.simclock import HOST, SimClock
from repro.common.stats import (
    FAULT_CACHE_ENTRIES_LOST,
    FAULTS_INJECTED,
    FAULTS_RECOVERED,
    Stats,
)
from repro.faults.plan import (
    KIND_CACHE_LOST,
    KIND_EXECUTOR_LOSS,
    KIND_GPU_ALLOC,
    KIND_RESTORE_IO,
    KIND_SPARK_TASK,
    KIND_SPILL_IO,
    FaultPlan,
    FaultSpec,
)
from repro.obs.events import EV_FAULT_INJECT, EV_FAULT_RECOVER, LANE_CP
from repro.obs.tracer import NULL_TRACER


class ArmedFault:
    """A scheduled fault with a live remaining-failure counter."""

    __slots__ = ("spec", "remaining")

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.remaining = spec.count

    def take(self) -> bool:
        """Consume one failure; ``False`` once the budgeted count is spent.

        Recovery loops call this once per attempt: while it returns
        ``True`` the site keeps failing, and the first ``False`` is the
        attempt that succeeds.
        """
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ArmedFault({self.spec.kind}@{self.spec.at}, "
                f"remaining={self.remaining})")


class FaultInjector:
    """Deterministic draw points + fault/recovery bookkeeping."""

    enabled = True

    def __init__(self, plan: FaultPlan, clock: SimClock, stats: Stats,
                 tracer=NULL_TRACER) -> None:
        self.plan = plan
        self.clock = clock
        self.stats = stats
        self.tracer = tracer
        #: victim selection only (lost executors / lost cache entries);
        #: never consulted unless a fault actually fires, so an empty
        #: plan draws nothing from it.
        self.rng = random.Random(plan.seed)
        # kind -> occurrence index -> armed faults at that index
        self._armed: dict[str, dict[int, list[ArmedFault]]] = {}
        # kind -> clock-keyed faults (fire at first matching site past T)
        self._timed: dict[str, list[ArmedFault]] = {}
        for spec in plan.specs:
            fault = ArmedFault(spec)
            if spec.at is not None:
                self._armed.setdefault(spec.kind, {}) \
                    .setdefault(spec.at, []).append(fault)
            else:
                self._timed.setdefault(spec.kind, []).append(fault)
        # kind -> next occurrence index
        self._indices: dict[str, int] = {}

    # -- occurrence counters --------------------------------------------------

    def draw(self, kind: str) -> Optional[ArmedFault]:
        """Advance ``kind``'s occurrence counter and return any armed fault."""
        at = self._indices.get(kind, 0)
        self._indices[kind] = at + 1
        for fault in self._armed.get(kind, {}).get(at, ()):
            if fault.remaining > 0:
                return fault
        now = self.clock.now(HOST)
        for fault in self._timed.get(kind, ()):
            if fault.remaining > 0 and now >= fault.spec.after_time:
                return fault
        return None

    # -- per-site draw points -------------------------------------------------

    def spark_task(self) -> Optional[ArmedFault]:
        """Draw for the next Spark task launch (map or result stage)."""
        return self.draw(KIND_SPARK_TASK)

    def executor_losses(self, num_executors: int) -> list[int]:
        """Executor ids lost before the next Spark job (usually empty).

        A spec's ``count`` is the number of executors lost at that job;
        without a ``target`` the victims are drawn from the injector RNG.
        """
        fault = self.draw(KIND_EXECUTOR_LOSS)
        lost: list[int] = []
        while fault is not None and fault.take():
            if fault.spec.target is not None:
                lost.append(fault.spec.target % num_executors)
            else:
                lost.append(self.rng.randrange(num_executors))
        return lost

    def gpu_alloc(self) -> Optional[ArmedFault]:
        """Draw for the next GPU allocation request."""
        return self.draw(KIND_GPU_ALLOC)

    def spill_io(self) -> bool:
        """Whether the next driver-cache disk spill fails."""
        fault = self.draw(KIND_SPILL_IO)
        return fault is not None and fault.take()

    def restore_io(self) -> bool:
        """Whether the next driver-cache disk restore fails."""
        fault = self.draw(KIND_RESTORE_IO)
        return fault is not None and fault.take()

    def lost_cache_entries(self, tiers) -> int:
        """Interpreter draw point: lose cached intermediates, maybe.

        Called once per op instruction with the session's
        :class:`~repro.core.tiers.BackendTiers`.  When armed, picks
        ``count`` random cached entries and invalidates **every**
        payload copy (CP, SP, GPU, and disk), forcing the interpreter's
        recompute-from-lineage path the next time the value is needed.
        """
        fault = self.draw(KIND_CACHE_LOST)
        lost = 0
        while fault is not None and fault.take():
            victims = [e for e in tiers.cache.entries() if e.is_cached]
            if not victims:
                break
            entry = victims[self.rng.randrange(len(victims))]
            dropped = tiers.invalidate(entry)
            self.stats.inc(FAULT_CACHE_ENTRIES_LOST)
            self.injected(KIND_CACHE_LOST, key=str(entry.key),
                          backends=",".join(dropped))
            lost += 1
        return lost

    # -- bookkeeping ----------------------------------------------------------

    def injected(self, kind: str, lane: str = LANE_CP, **args) -> None:
        """Record one fired fault (counter + trace instant)."""
        self.stats.inc(FAULTS_INJECTED)
        if self.tracer.enabled:
            self.tracer.instant(EV_FAULT_INJECT, lane, kind=kind, **args)

    def recovered(self, kind: str, lane: str = LANE_CP, **args) -> None:
        """Record one completed recovery (counter + trace instant)."""
        self.stats.inc(FAULTS_RECOVERED)
        if self.tracer.enabled:
            self.tracer.instant(EV_FAULT_RECOVER, lane, kind=kind, **args)


class NullInjector:
    """Disabled injector: every draw is a no-op returning 'no fault'.

    Backends hold this singleton when no plan is active; the single
    ``enabled`` attribute check is the only per-call cost, and the
    convenience methods are safe to call anyway (tests, cold paths).
    One of the two null singletons of the zero-overhead pattern
    (docs/ARCHITECTURE.md "Zero overhead when disabled").
    """

    enabled = False
    plan = None

    def draw(self, kind):
        return None

    def spark_task(self):
        return None

    def executor_losses(self, num_executors):
        return []

    def gpu_alloc(self):
        return None

    def spill_io(self):
        return False

    def restore_io(self):
        return False

    def lost_cache_entries(self, tiers):
        return 0

    def injected(self, kind, lane=LANE_CP, **args):
        pass

    def recovered(self, kind, lane=LANE_CP, **args):
        pass


NULL_INJECTOR = NullInjector()
