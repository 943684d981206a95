"""Per-backend memory regions: capacity + byte ledgers + watermarks.

A :class:`MemoryRegion` is the accounting half of the arbitration
substrate: reserved/used byte ledgers under one capacity, with
the invariant ``used + reserved + free == capacity`` (``free`` clamps
at zero for unlimited regions, which may legally overcommit).  The
decision half — victim selection, spill-vs-drop, admission —
lives in :class:`~repro.memory.arbiter.MemoryArbiter`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.policies import EvictionPolicy


class MemoryRegion:
    """One backend's byte ledger under the shared arbiter.

    The reservation protocol is two-phase: :meth:`reserve` holds bytes
    (space is guaranteed but not yet owned), then :meth:`commit` turns
    the hold into usage or :meth:`cancel` drops it.  :meth:`release`
    returns used bytes (eviction, unpersist, free).  :meth:`acquire`
    is the one-shot reserve+commit used when the caller has already
    ensured space (e.g. mirroring a device allocator's own ledger).
    """

    __slots__ = (
        "name", "capacity", "unlimited", "policy",
        "used", "reserved", "peak_used",
        "quotas", "tenant_used",
    )

    def __init__(self, name: str, capacity: int,
                 policy: Optional[EvictionPolicy] = None,
                 unlimited: bool = False) -> None:
        self.name = name
        self.capacity = int(capacity)
        self.unlimited = unlimited
        #: region-local eviction policy (``core/policies.py`` registry);
        #: the single source of victim order for this region.
        self.policy = policy
        self.used = 0
        self.reserved = 0
        self.peak_used = 0
        #: per-tenant fair-share byte quotas (``repro.server``); ``None``
        #: until the first quota is set, so single-tenant sessions pay
        #: nothing for the multi-tenant ledgers.
        self.quotas: Optional[dict[str, int]] = None
        #: per-tenant used bytes; tracked once any quota or tenant
        #: charge exists.
        self.tenant_used: Optional[dict[str, int]] = None

    # -- queries ------------------------------------------------------------

    @property
    def free(self) -> int:
        """Unclaimed bytes; ``used + reserved + free == capacity``."""
        return max(self.capacity - self.used - self.reserved, 0)

    @property
    def occupancy(self) -> float:
        """Claimed fraction of capacity (may exceed 1.0 if unlimited)."""
        if self.capacity <= 0:
            return 0.0
        return (self.used + self.reserved) / self.capacity

    def fits(self, size: int) -> bool:
        """Whether ``size`` more bytes fit without any eviction."""
        return self.unlimited or \
            self.used + self.reserved + size <= self.capacity

    # -- ledger transitions -------------------------------------------------

    def reserve(self, size: int) -> None:
        self.reserved += size

    def commit(self, size: int) -> None:
        """Turn ``size`` reserved bytes into used bytes."""
        self.reserved -= size
        self.used += size
        if self.used > self.peak_used:
            self.peak_used = self.used

    def cancel(self, size: int) -> None:
        """Drop a reservation without using it."""
        self.reserved -= size

    def acquire(self, size: int) -> None:
        """One-shot reserve+commit (caller already ensured space)."""
        self.used += size
        if self.used > self.peak_used:
            self.peak_used = self.used

    def release(self, size: int) -> None:
        """Return ``size`` used bytes to the region."""
        self.used -= size

    # -- per-tenant fair-share ledgers (repro.server) -----------------------

    def set_quota(self, tenant: str, nbytes: Optional[int]) -> None:
        """Set (or clear, with ``None``) a tenant's byte quota."""
        if self.quotas is None:
            self.quotas = {}
        if nbytes is None:
            self.quotas.pop(tenant, None)
        else:
            self.quotas[tenant] = int(nbytes)

    def quota(self, tenant: str) -> Optional[int]:
        """The tenant's quota in bytes, or ``None`` (no cap)."""
        if self.quotas is None:
            return None
        return self.quotas.get(tenant)

    def charge_tenant(self, tenant: str, delta: int) -> None:
        """Attribute ``delta`` used bytes (possibly negative) to a tenant.

        A sub-ledger of ``used``: the region-level ledger transitions
        still account the same bytes; this only records *whose* they are.
        """
        if self.tenant_used is None:
            self.tenant_used = {}
        self.tenant_used[tenant] = self.tenant_used.get(tenant, 0) + delta

    def tenant_usage(self, tenant: str) -> int:
        if self.tenant_used is None:
            return 0
        return self.tenant_used.get(tenant, 0)

    def quota_headroom(self, tenant: str) -> Optional[int]:
        """Bytes the tenant may still use under its quota (None = no cap)."""
        quotas = self.quotas
        cap = None if quotas is None else quotas.get(tenant)
        if cap is None:
            return None
        used = self.tenant_used
        return cap if used is None else cap - used.get(tenant, 0)

    def over_quota(self, tenant: str) -> bool:
        """Whether the tenant's attributed usage exceeds its quota."""
        cap = self.quota(tenant)
        return cap is not None and self.tenant_usage(tenant) > cap

    def reset(self) -> None:
        """Drop all ledgers (cache clear); capacity/policy survive."""
        self.used = 0
        self.reserved = 0
        if self.tenant_used is not None:
            self.tenant_used.clear()

    def check(self) -> None:
        """Assert the ledger invariants (used by the property tests)."""
        assert self.used >= 0, f"{self.name}: negative used ({self.used})"
        assert self.reserved >= 0, \
            f"{self.name}: negative reserved ({self.reserved})"
        assert self.used + self.reserved + self.free == self.capacity or \
            self.unlimited or self.used + self.reserved > self.capacity, \
            f"{self.name}: ledger does not tile capacity"
        if not self.unlimited:
            assert self.used + self.reserved <= self.capacity, (
                f"{self.name}: overcommitted "
                f"({self.used}+{self.reserved} > {self.capacity})"
            )
        if self.tenant_used is not None:
            total = 0
            for tenant, nbytes in self.tenant_used.items():
                assert nbytes >= 0, (
                    f"{self.name}: negative tenant usage "
                    f"({tenant}: {nbytes})"
                )
                total += nbytes
            assert total <= self.used, (
                f"{self.name}: tenant ledgers exceed used "
                f"({total} > {self.used})"
            )

    def snapshot(self) -> dict:
        """Accounting snapshot for diagnostics and ``obs`` summaries."""
        snap = {
            "region": self.name,
            "capacity": self.capacity,
            "used": self.used,
            "reserved": self.reserved,
            "free": self.free,
            "peak_used": self.peak_used,
            "unlimited": self.unlimited,
            "policy": getattr(self.policy, "name", None),
        }
        if self.tenant_used is not None:
            snap["tenants"] = {
                tenant: {
                    "used": nbytes,
                    "quota": self.quota(tenant),
                }
                for tenant, nbytes in sorted(self.tenant_used.items())
            }
        return snap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MemoryRegion({self.name}, {self.used}+{self.reserved}r"
                f"/{self.capacity})")
