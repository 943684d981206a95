"""The memory arbiter: reserve/commit/release + policy-driven eviction.

The decision half of the arbitration substrate.  Every manager routes
its reservations and victim selection through here:

* **Reservation protocol** — :meth:`reserve` guarantees space in a
  region, evicting policy-selected victims through a caller-supplied
  callback until the request fits; :meth:`commit`/:meth:`cancel`/
  :meth:`release` drive the byte ledgers.
* **Victim selection** — :meth:`select_victim` is the only place a
  victim is ever chosen; it applies the region's policy from the
  ``core/policies.py`` registry (or a caller-supplied score for
  context-dependent normalisation, e.g. the GPU's Eq. 2 max-cost term).
* **Spill-vs-drop** — :meth:`should_spill` owns the recompute-cost vs
  disk-round-trip break-even (§3.3) and the disk-region budget check.
* **Admission** — :meth:`admit` implements delayed caching (§5.2) as a
  region admission policy rather than a cache-local flag.
* **Cross-region coordination** — residency probes let one region ask
  whether an object is resident elsewhere before paying a transfer
  (GPU eviction consults driver-cache residency).
* **Fault hooks** — the spill/restore/alloc fault draw points of
  ``repro.faults`` live behind the arbiter, so every region's spill
  path shares one deterministic draw sequence.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from repro.common.stats import (
    FAULT_RESTORE_IO_ERRORS,
    FAULT_SPILL_IO_ERRORS,
    MEM_EVICTIONS,
    MEM_PLAN_RESERVE_FAILURES,
    MEM_PLAN_RESERVES,
    MEM_RESERVE_FAILURES,
    MEM_RESERVES,
    MEM_RESTORES,
    MEM_SPILLS,
    Stats,
)
from repro.core.policies import EvictionPolicy, make_policy
from repro.faults.injector import NULL_INJECTOR
from repro.faults.plan import KIND_RESTORE_IO, KIND_SPILL_IO
from repro.memory.region import MemoryRegion
from repro.obs.events import (
    EV_MEM_EVICT,
    EV_MEM_PLAN_RESERVE,
    EV_MEM_RESERVE,
    EV_MEM_RESTORE,
    EV_MEM_SPILL,
    LANE_CP,
)
from repro.obs.tracer import NULL_TRACER


class PlanReservation:
    """Outstanding holds of one :meth:`MemoryArbiter.reserve_plan` call.

    The holds sit in each region's ``reserved`` counter until the plan
    is either committed (the block was verified and will execute) or
    cancelled (verification failed / the caller bailed out).  Committing
    *releases* the holds rather than converting them to ``used``: the
    managers charge their own usage instruction by instruction during
    execution, so keeping the bulk hold would double-count every byte.
    The reservation therefore guarantees *admissibility at block start*
    — the substrate a multi-tenant server needs for admission control —
    while leaving the instruction-level ledger accounting untouched.
    """

    __slots__ = ("arbiter", "holds", "settled")

    def __init__(self, arbiter: "MemoryArbiter",
                 holds: dict[str, int]) -> None:
        self.arbiter = arbiter
        #: region name -> bytes currently held in ``reserved``.
        self.holds = holds
        self.settled = False

    @property
    def total(self) -> int:
        return sum(self.holds.values())

    def commit(self) -> None:
        """Admit the plan: drop the holds, execution charges for itself."""
        self._drop()

    def cancel(self) -> None:
        """Abandon the plan (verification failed): drop the holds."""
        self._drop()

    def _drop(self) -> None:
        if self.settled:
            return
        self.settled = True
        for name, size in self.holds.items():
            if size:
                self.arbiter.cancel(name, size)


class _SpillModel:
    """Per-region spill cost model: break-even + destination budget."""

    __slots__ = ("enabled", "disk_region", "bytes_per_s", "flops_per_s")

    def __init__(self, enabled: bool, disk_region: Optional[str],
                 bytes_per_s: float, flops_per_s: float) -> None:
        self.enabled = enabled
        self.disk_region = disk_region
        self.bytes_per_s = bytes_per_s
        self.flops_per_s = flops_per_s


class MemoryArbiter:
    """Shared reserve/commit/release arbiter over named memory regions.

    One instance per :class:`~repro.core.session.Session` coordinates
    all its managers; standalone managers (unit tests, tools) create a
    private arbiter, so the substrate is always in the loop.
    """

    def __init__(self, stats: Optional[Stats] = None, tracer=None,
                 faults=None) -> None:
        self.stats = stats if stats is not None else Stats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.faults = faults if faults is not None else NULL_INJECTOR
        self._regions: dict[str, MemoryRegion] = {}
        self._spill: dict[str, _SpillModel] = {}
        #: region -> probe(token) -> bool: is ``token``'s data resident
        #: in that region?  Consulted by :meth:`resident_elsewhere`.
        self._residency: dict[str, Callable[[object], bool]] = {}

    # -- region registry ------------------------------------------------------

    def add_region(self, name: str, capacity: int, *,
                   policy: Optional[EvictionPolicy] = None,
                   policy_name=None,
                   unlimited: bool = False) -> MemoryRegion:
        """Register a region; ``policy_name`` resolves via the registry."""
        if name in self._regions:
            raise ValueError(f"memory region {name!r} already registered")
        if policy is None and policy_name is not None:
            policy = make_policy(policy_name)
        region = MemoryRegion(name, capacity, policy=policy,
                              unlimited=unlimited)
        self._regions[name] = region
        return region

    def region(self, name: str) -> MemoryRegion:
        return self._regions[name]

    def regions(self) -> list[MemoryRegion]:
        return list(self._regions.values())

    def check(self) -> None:
        """Assert every region's ledger invariants (tests/debugging)."""
        for region in self._regions.values():
            region.check()

    # -- reservation protocol -------------------------------------------------

    def reserve(self, name: str, size: int, *,
                candidates: Optional[Callable[[], Sequence]] = None,
                evict: Optional[Callable[[object], None]] = None,
                now: float = 0.0,
                score: Optional[Callable[[object], float]] = None) -> bool:
        """Hold ``size`` bytes in region ``name``, evicting to make room.

        Victims come from ``candidates()`` (re-evaluated after every
        eviction), chosen by :meth:`select_victim`; ``evict(victim)``
        must release the victim's bytes via :meth:`release`.  On success
        the bytes sit in ``reserved`` until :meth:`commit` or
        :meth:`cancel`.
        """
        region = self._regions[name]
        if not region.unlimited:
            if size > region.capacity:
                self.stats.inc(MEM_RESERVE_FAILURES)
                return False
            while region.used + region.reserved + size > region.capacity:
                victim = None
                if candidates is not None and evict is not None:
                    victim = self.select_victim(
                        name, candidates(), now=now, score=score
                    )
                if victim is None:
                    self.stats.inc(MEM_RESERVE_FAILURES)
                    if self.tracer.enabled:
                        self.tracer.instant(
                            EV_MEM_RESERVE, LANE_CP, region=name,
                            nbytes=size, ok=False,
                        )
                    return False
                used_before = region.used
                evict(victim)
                if region.used >= used_before:
                    # the eviction callback failed to release anything;
                    # bail out instead of spinning on the same victim
                    self.stats.inc(MEM_RESERVE_FAILURES)
                    return False
        region.reserve(size)
        self.stats.inc(MEM_RESERVES)
        return True

    def reserve_plan(self, demands: dict[str, int], *,
                     strict: bool = False) -> Optional[PlanReservation]:
        """Two-phase bulk reservation of a static plan's peak footprint.

        ``demands`` maps region names to the statically predicted peak
        bytes the block will put through each region (see
        ``repro.analysis.memplan``).  For every *registered, bounded*
        region the arbiter holds ``min(demand, capacity) - used -
        reserved`` bytes (never less than zero): the part of the
        predicted peak not already backed by resident or reserved data.
        Unlimited regions and unknown region names are skipped — there
        is nothing to admit against.

        All-or-nothing: if any region cannot take its hold, the partial
        holds are rolled back and ``None`` is returned.  In the default
        (lenient) mode a hold is always grantable because it is clamped
        to the region's remaining headroom — the call then serves as an
        accounting point (``memory/plan_reserves``) and a handle for the
        commit/cancel protocol.  With ``strict=True`` the *unclamped*
        residual demand must fit under ``capacity - pinned``; a block
        whose predicted peak cannot fit even after evicting every
        unpinned byte is refused up front.  Multi-tenant admission
        control (ROADMAP item 1) layers on the strict mode.

        The caller must settle the returned :class:`PlanReservation`
        via ``commit()`` (verified, about to execute) or ``cancel()``
        (verification failed) — both drop the holds; see
        :class:`PlanReservation` for why commit does not convert them
        to ``used``.
        """
        holds: dict[str, int] = {}
        for name, demand in demands.items():
            region = self._regions.get(name)
            if region is None or region.unlimited or demand <= 0:
                continue
            bounded = min(demand, region.capacity)
            need = bounded - region.used - region.reserved
            if strict:
                residual = max(demand - region.used, 0)
                if residual > region.capacity - region.pinned:
                    for held, size in holds.items():
                        self.cancel(held, size)
                    self.stats.inc(MEM_PLAN_RESERVE_FAILURES)
                    if self.tracer.enabled:
                        self.tracer.instant(
                            EV_MEM_PLAN_RESERVE, LANE_CP, region=name,
                            nbytes=demand, ok=False,
                        )
                    return None
            if need <= 0:
                continue
            region.reserve(need)
            holds[name] = need
        self.stats.inc(MEM_PLAN_RESERVES)
        if self.tracer.enabled:
            self.tracer.instant(
                EV_MEM_PLAN_RESERVE, LANE_CP,
                regions=",".join(sorted(holds)) or "-",
                nbytes=sum(holds.values()), ok=True,
            )
        return PlanReservation(self, holds)

    def ensure_space(self, name: str, size: int, *,
                     candidates: Optional[Callable[[], Sequence]] = None,
                     evict: Optional[Callable[[object], None]] = None,
                     now: float = 0.0,
                     score: Optional[Callable[[object], float]] = None) -> bool:
        """MAKE_SPACE: guarantee ``size`` bytes fit, without claiming them."""
        if not self.reserve(name, size, candidates=candidates, evict=evict,
                            now=now, score=score):
            return False
        self._regions[name].cancel(size)
        return True

    def commit(self, name: str, size: int) -> None:
        self._regions[name].commit(size)

    def cancel(self, name: str, size: int) -> None:
        self._regions[name].cancel(size)

    def acquire(self, name: str, size: int) -> None:
        """One-shot reserve+commit (mirroring an external allocator)."""
        self._regions[name].acquire(size)

    def release(self, name: str, size: int) -> None:
        self._regions[name].release(size)

    def pin(self, name: str, size: int) -> None:
        self._regions[name].pin(size)

    def unpin(self, name: str, size: int) -> None:
        self._regions[name].unpin(size)

    # -- per-tenant fair-share quotas (repro.server) ---------------------------

    def set_quota(self, name: str, tenant: str,
                  nbytes: Optional[int]) -> None:
        """Set (or clear) a tenant's byte quota in region ``name``."""
        self._regions[name].set_quota(tenant, nbytes)

    def charge_tenant(self, name: str, tenant: str, delta: int) -> None:
        """Attribute ``delta`` used bytes of region ``name`` to a tenant."""
        self._regions[name].charge_tenant(tenant, delta)

    def tenant_usage(self, name: str, tenant: str) -> int:
        return self._regions[name].tenant_usage(tenant)

    def quota_headroom(self, name: str, tenant: str) -> Optional[int]:
        """Bytes the tenant may still use in ``name`` (None = no cap)."""
        return self._regions[name].quota_headroom(tenant)

    def over_quota(self, name: str, tenant: str) -> bool:
        return self._regions[name].over_quota(tenant)

    # -- victim selection -----------------------------------------------------

    def select_victim(self, name: str, candidates: Iterable, *,
                      now: float = 0.0,
                      score: Optional[Callable[[object], float]] = None):
        """Minimum-score candidate under the region's policy, or ``None``.

        ``score`` overrides the policy for context-dependent scoring
        (the GPU's Eq. 2 needs the candidate set's max cost); the
        region's policy from ``core/policies.py`` is the default.
        """
        items = candidates if isinstance(candidates, list) \
            else list(candidates)
        if not items:
            return None
        if score is None:
            policy = self._regions[name].policy
            if policy is None:
                return items[0]
            return min(items, key=lambda e: policy.score(e, now))
        return min(items, key=score)

    # -- admission (delayed caching, §5.2) ------------------------------------

    def admit(self, name: str, seen_count: int, delay_factor: int) -> bool:
        """Admission policy: admit the object on its n-th appearance.

        Delay factor *n* > 1 defers caching until the n-th put of the
        same lineage (paper §5.2); auto-tuning overrides *n* per block.
        """
        return seen_count >= delay_factor

    # -- spill-vs-drop decision (§3.3) ----------------------------------------

    def configure_spill(self, name: str, *, enabled: bool,
                        disk_region: Optional[str],
                        bytes_per_s: float, flops_per_s: float) -> None:
        """Attach a spill cost model to region ``name``."""
        self._spill[name] = _SpillModel(enabled, disk_region,
                                        bytes_per_s, flops_per_s)

    def should_spill(self, name: str, size: int, compute_cost: float) -> bool:
        """Spill only when recomputation costs more than a disk round trip
        and the destination region has budget left."""
        model = self._spill.get(name)
        if model is None or not model.enabled:
            return False
        if model.disk_region is not None:
            disk = self._regions[model.disk_region]
            if disk.used + size > disk.capacity:
                return False
        recompute_time = compute_cost / model.flops_per_s
        roundtrip_time = 2.0 * size / model.bytes_per_s
        return recompute_time > roundtrip_time

    # -- cross-region coordination --------------------------------------------

    def register_residency(self, name: str,
                           probe: Callable[[object], bool]) -> None:
        """Register ``probe(token) -> bool`` answering residency in ``name``."""
        self._residency[name] = probe

    def resident_elsewhere(self, token: object,
                           exclude: tuple = ()) -> bool:
        """Whether ``token``'s data is resident in any other region.

        The holistic-eviction consultation: before paying a transfer to
        save an object, a region asks whether another tier already holds
        a copy (e.g. GPU D2H eviction vs an existing driver-cache copy).
        """
        for name, probe in self._residency.items():
            if name in exclude:
                continue
            if probe(token):
                return True
        return False

    # -- fault hooks (repro.faults draw points) -------------------------------

    def spill_fault(self, lane: str = LANE_CP, **details) -> bool:
        """Draw the next spill-I/O fault; records counter + trace on fire."""
        if not (self.faults.enabled and self.faults.spill_io()):
            return False
        self.stats.inc(FAULT_SPILL_IO_ERRORS)
        self.faults.injected(KIND_SPILL_IO, lane, **details)
        return True

    def restore_fault(self, lane: str = LANE_CP, **details) -> bool:
        """Draw the next restore-I/O fault; records counter + trace on fire."""
        if not (self.faults.enabled and self.faults.restore_io()):
            return False
        self.stats.inc(FAULT_RESTORE_IO_ERRORS)
        self.faults.injected(KIND_RESTORE_IO, lane, **details)
        return True

    def alloc_fault(self):
        """Draw point for the next (GPU) allocation request."""
        if not self.faults.enabled:
            return None
        return self.faults.gpu_alloc()

    # -- observability --------------------------------------------------------

    def record_evict(self, name: str, nbytes: int, **args) -> None:
        """Note one eviction in the ``memory/`` namespace."""
        self.stats.inc(MEM_EVICTIONS)
        if self.tracer.enabled:
            self.tracer.instant(EV_MEM_EVICT, LANE_CP, region=name,
                                nbytes=nbytes, **args)

    def record_spill(self, name: str, nbytes: int, **args) -> None:
        """Note one payload moving to a slower tier."""
        self.stats.inc(MEM_SPILLS)
        if self.tracer.enabled:
            self.tracer.instant(EV_MEM_SPILL, LANE_CP, region=name,
                                nbytes=nbytes, **args)

    def record_restore(self, name: str, nbytes: int, **args) -> None:
        """Note one payload restored from a slower tier."""
        self.stats.inc(MEM_RESTORES)
        if self.tracer.enabled:
            self.tracer.instant(EV_MEM_RESTORE, LANE_CP, region=name,
                                nbytes=nbytes, **args)

    def snapshot(self) -> list[dict]:
        """Per-region accounting snapshots for diagnostics."""
        return [r.snapshot() for r in self._regions.values()]
