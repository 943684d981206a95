"""The memory arbiter: reservation, admission and policy-driven eviction.

The decision half of the arbitration substrate: the arbiter *decides*
(evict whom, spill or drop, admit or refuse), the
:class:`~repro.memory.region.MemoryRegion` each manager holds *counts*
(``commit``/``cancel``/``acquire``/``release``/``pin``/quotas are called
on the region directly).  Every manager routes its space requests and
victim selection through here:

* **Reservation** — :meth:`reserve` guarantees space in a region,
  evicting policy-selected victims through a caller-supplied callback
  until the request fits; the caller settles the hold on the region.
* **Victim selection** — :meth:`select_victim` is the only place a
  victim is ever chosen; it applies the region's policy from the
  ``core/policies.py`` registry (or a caller-supplied score for
  context-dependent normalisation, e.g. the GPU's Eq. 2 max-cost term).
* **Spill-vs-drop** — :meth:`should_spill` owns the recompute-cost vs
  disk-round-trip break-even (§3.3) and the disk-region budget check.
* **Admission** — :meth:`admissible` is the pure predicate the
  multi-tenant gate asks: can a block's predicted peaks fit at all?
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
    """Shared arbiter over named memory regions.

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

    def __contains__(self, name: str) -> bool:
        """Whether a region ``name`` is registered (a session registers
        its Spark/GPU regions before it builds those tiers)."""
        return name in self._regions

    def regions(self) -> list[MemoryRegion]:
        return list(self._regions.values())

    def check(self) -> None:
        """Assert every region's ledger invariants and the quiescent
        law: between statements no hold is outstanding (``reserved`` is
        non-zero only inside one ``reserve`` -> ``commit`` of a put)."""
        for region in self._regions.values():
            region.check()
            assert region.reserved == 0, \
                f"{region.name}: {region.reserved} B still reserved"

    # -- reservation protocol -------------------------------------------------

    def reserve(self, name: str, size: int, *,
                candidates: Optional[Callable[[], Sequence]] = None,
                evict: Optional[Callable[[object], None]] = None,
                now: float = 0.0,
                score: Optional[Callable[[object], float]] = None) -> bool:
        """Hold ``size`` bytes in region ``name``, evicting to make room.

        Victims come from ``candidates()`` (re-evaluated after every
        eviction), chosen by :meth:`select_victim`; ``evict(victim)``
        must release the victim's bytes on the region.  On success the
        bytes sit in ``reserved`` until the caller's ``region.commit``
        or ``region.cancel``.
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

    def admissible(self, demands: dict[str, int]) -> Optional[str]:
        """Can a block with these predicted per-region peaks fit at all?

        ``demands`` maps region names to the statically predicted peak
        bytes (``repro.analysis.memplan``).  A registered bounded region
        refuses when the demand not already backed by resident data
        exceeds what evicting every unpinned byte could free:
        ``max(demand - used, 0) > capacity - pinned``.  Unlimited and
        unknown regions have nothing to admit against.  Returns the
        first refusing region's name (counted and traced), else
        ``None``; no ledger is touched either way.
        """
        for name, demand in demands.items():
            region = self._regions.get(name)
            if region is None or region.unlimited or demand <= 0:
                continue
            if max(demand - region.used, 0) > region.capacity - region.pinned:
                self.stats.inc(MEM_PLAN_RESERVE_FAILURES)
                if self.tracer.enabled:
                    self.tracer.instant(
                        EV_MEM_PLAN_RESERVE, LANE_CP, region=name,
                        nbytes=demand, ok=False,
                    )
                return name
        return None

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
