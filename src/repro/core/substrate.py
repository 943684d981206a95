"""Shared reuse substrate: cross-session cache, interner, and arbiter.

MEMPHIS's holistic reuse thesis only pays off at scale when *many*
pipelines share one lineage cache and one memory arbiter (ROADMAP
item 1; the stratum vision paper in PAPERS.md).  This module extracts
substrate ownership out of :class:`~repro.core.session.Session`:

* a :class:`Substrate` owns the :class:`~repro.memory.arbiter.MemoryArbiter`
  with the ``CP``/``DISK`` region ledgers, the
  :class:`~repro.core.cache.LineageCache`, and the
  :class:`~repro.lineage.item.LineageInterner`;
* a :class:`Session` takes one via injection.  The default is a
  *private* substrate built from the session's own stats/clock/tracer —
  exactly the object graph sessions constructed before this layer
  existed, so single-session behaviour is byte-identical;
* a *shared* substrate (``Substrate.shared_substrate()``) is attached
  by many sessions (``Session(cfg, substrate=sub)``, or every session
  built under ``runtime.scope(substrate=sub)``).  Each attachment
  yields a :class:`SessionContext` that namespaces lineage keys and
  enforces the tenant's fair share.

Namespacing rules (cross-session deduplication)
-----------------------------------------------

A lineage key is **globally shared** — one cache entry serves every
session — iff its DAG is pure under the determinism rules the static
verifier enforces (DET001–006, ``repro.analysis.dag_rules``):

* no ``rand``/``dropout`` anywhere in the DAG, unless the ``rand`` is
  a constant fill (``eye``'s ones,
  :func:`~repro.backends.cpu.kernels.constant_fill`), whose bytes its
  attributes alone decide.  Any other ``rand`` is scoped, seeded or
  not: an unseeded one draws a session-local seed counter, so two
  sessions produce *identical* lineage for *different* data — sharing
  would return wrong results (DET001/DET002);
* no coarse-grained function items (``func:*``): their outputs
  reference session-bound payload keys;
* every ``data`` leaf names a registered dataset whose content
  fingerprint equals the substrate's canonical fingerprint for that
  name.  Two tenants reading different bytes under the same name never
  unify (and never produce false hits).  A :func:`frozen` (read-only)
  array is digested once per substrate; any other is digested on
  every read.

Everything else is wrapped in a per-session namespace item
(``ns:<uid>``), so seeded/impure/nondeterministic hops stay
session-scoped and report zero cross-session hits.

Payload safety: a cross-session hit is only served when the entry holds
a host-side copy (driver ``CP`` payload or a disk spill) — Spark RDD
handles and GPU pointers are bound to the owning session's backends.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import defaultdict
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.backends.cpu.kernels import constant_fill
from repro.common.config import MemphisConfig
from repro.common.errors import AdmissionError
from repro.common.runtime import RuntimeContext, current as current_runtime
from repro.common.simclock import SimClock
from repro.common.stats import (
    SERVER_ADMITTED,
    SERVER_BACKPRESSURE,
    SERVER_CROSS_HITS,
    SERVER_DEDUP_BYTES,
    SERVER_QUOTA_REFUSALS,
    SERVER_SCOPED_KEYS,
    SERVER_SESSIONS,
    Stats,
)
from repro.core.cache import BACKEND_DISK, LineageCache
from repro.core.entry import BACKEND_CP, CacheEntry
from repro.lineage.item import (
    OP_DATA,
    OP_FUNCTION,
    OP_NAMESPACE,
    LineageInterner,
    LineageItem,
    attrs_from_data,
)
from repro.memory import REGION_CP, MemoryArbiter, shared_demands
from repro.obs.events import EV_SERVER_ATTRIBUTION, EV_SERVER_BACKPRESSURE
from repro.obs.tracer import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.session import Session

#: opcodes whose results are not reproducible across sessions (the
#: DET001/DET002 families): any DAG containing one stays session-scoped,
#: but for a ``rand`` that is a constant fill.
IMPURE_OPCODES = frozenset({"rand", "dropout"})

#: opcode prefix of namespace wrapper items (canonical constant lives
#: with the other lineage opcodes in ``repro.lineage.item``).
NS_PREFIX = OP_NAMESPACE


def fingerprint(data: Union[np.ndarray, float, int]) -> str:
    """Content fingerprint of an input dataset (shape + bytes digest)."""
    if isinstance(data, (float, int)):
        return f"scalar:{float(data)!r}"
    arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
    # the contiguous buffer is hashed in place, without a bytes copy
    return f"{arr.shape}:{hashlib.sha1(arr).hexdigest()}"


def frozen(data: object) -> bool:
    """Whether no writeable array can reach ``data``'s bytes.

    True for a read-only array that owns its buffer, or whose ``.base``
    chain is read-only all the way down to one that does.  A writeable
    array, a read-only view of a writeable base, or a view of a
    non-array buffer is not frozen.
    """
    while isinstance(data, np.ndarray) and not data.flags.writeable:
        if data.base is None:
            return True
        data = data.base
    return False


class SessionContext:
    """One session's view of a shared :class:`Substrate`.

    Produced by :meth:`Substrate.attach`; carries the session uid used
    for key namespacing, the tenant the session's cache bytes are
    attributed to, and the session's dataset fingerprints.
    """

    __slots__ = ("substrate", "uid", "scope_opcode", "tenant", "events",
                 "fingerprints", "request", "_last_key", "_last_ns")

    def __init__(self, substrate: "Substrate", uid: int,
                 tenant: str) -> None:
        self.substrate = substrate
        self.uid = uid
        #: opcode of this session's namespace wrappers (``ns:<uid>``).
        self.scope_opcode = f"{NS_PREFIX}:{uid}"
        self.tenant = tenant
        #: the tenant's event tallies (``Substrate.events_of``).
        self.events = substrate.events_of(tenant)
        #: dataset name -> content fingerprint, as registered by *this*
        #: session's ``read()`` calls.
        self.fingerprints: dict[str, str] = {}
        #: active :class:`~repro.obs.request.RequestContext` (set by
        #: ``Session.bind_request``): stamps producer provenance onto
        #: cache entries and attribution events.  ``None`` outside a
        #: server request.
        self.request = None
        #: one-slot memo of :meth:`namespaced` (the PUT after a missed
        #: probe asks again); ``Substrate.register_dataset`` clears it.
        self._last_key: Optional[LineageItem] = None
        self._last_ns: Optional[LineageItem] = None

    # -- key namespacing ----------------------------------------------------

    def namespaced(self, key: LineageItem) -> LineageItem:
        """The cache key for ``key``: itself (global) or a scoped wrapper."""
        if key is not self._last_key:
            sub = self.substrate
            self._last_ns = key if sub.shareable(self, key) \
                else sub.scope_key(self.scope_opcode, key)
            self._last_key = key
        return self._last_ns

    # -- cross-session hit accounting --------------------------------------

    def usable(self, entry: CacheEntry) -> bool:
        """Whether this session may consume ``entry``'s payloads.

        Own entries always; another session's only through a host-side
        copy (CP payload or disk spill) — never its Spark/GPU handles.
        """
        if entry.owner is None or entry.owner == self.uid:
            return True
        return (BACKEND_CP in entry.payloads
                or BACKEND_DISK in entry.payloads)

    def note_hit(self, entry: CacheEntry) -> None:
        """Account a probe hit; cross-owner hits are deduplication wins.

        Every cross-owner hit is also *attributed*: the producer tenant
        recorded on the entry at put time is credited with ``entry.size``
        bytes and the entry's recompute cost (the Eq. 2 benefit the
        consumer avoided), aggregated into the substrate's per-tenant-pair
        benefit matrix and — when tracing — emitted as a
        ``server/attribution`` instant.
        """
        self.events["hits"] += 1
        owner = entry.owner
        if owner is None or owner == self.uid:
            return
        sub = self.substrate
        counts = sub.stats.counts
        counts[SERVER_CROSS_HITS] += 1
        counts[SERVER_DEDUP_BYTES] += entry.size
        producer = entry.tenant if entry.tenant is not None else "default"
        sub.note_attribution(producer, self.tenant, entry.size,
                             entry.compute_cost)
        if sub.tracer.enabled:
            sub.tracer.instant(
                EV_SERVER_ATTRIBUTION, producer=producer,
                consumer=self.tenant, producer_request=entry.request,
                key=entry.key.id, nbytes=entry.size,
                cost_avoided=entry.compute_cost,
            )

    # -- admission (fair-share gate) ----------------------------------------

    def admit(self, demands: dict[str, int]) -> None:
        """Admission gate for one block's statically planned footprint.

        The shared-region subset of ``demands`` must pass (a) the
        tenant's quota and (b) the substrate arbiter's admission
        predicate (:meth:`MemoryArbiter.admissible`).  Refusals
        count as backpressure (``server/backpressure_events``, the
        tenant tally, a trace instant — what a scheduler observes) and
        raise :class:`AdmissionError`.
        """
        sub = self.substrate
        shared = shared_demands(demands)
        cp_demand = shared.get(REGION_CP, 0)
        quota = sub.arbiter.region(REGION_CP).quota(self.tenant)
        if quota is not None and cp_demand > quota:
            sub.stats.inc(SERVER_QUOTA_REFUSALS)
            sub.note_tenant_event(self.tenant, "admission_refusals")
            self._backpressure(REGION_CP, cp_demand)
            raise AdmissionError(
                f"block CP demand {cp_demand} exceeds tenant "
                f"{self.tenant!r} quota {quota}",
                region=REGION_CP, tenant=self.tenant, demand=cp_demand,
            )
        if sub.arbiter.admissible(shared) is not None:
            sub.note_tenant_event(self.tenant, "admission_refusals")
            self._backpressure(REGION_CP, cp_demand)
            raise AdmissionError(
                f"shared substrate cannot admit block "
                f"(demands {shared}, tenant {self.tenant!r})",
                region=REGION_CP, tenant=self.tenant, demand=cp_demand,
            )
        sub.stats.counts[SERVER_ADMITTED] += 1

    def _backpressure(self, region: str, nbytes: int) -> None:
        sub = self.substrate
        sub.stats.inc(SERVER_BACKPRESSURE)
        sub.note_tenant_event(self.tenant, "backpressure_events")
        if sub.tracer.enabled:
            sub.tracer.instant(EV_SERVER_BACKPRESSURE, tenant=self.tenant,
                               region=region, nbytes=nbytes)

    # -- victim protection ---------------------------------------------------

    def evictable(self, entry: CacheEntry) -> bool:
        """Whether this session may evict ``entry`` under fair share.

        Own-tenant entries are always fair game; another tenant's are
        protected while that tenant is within its quota.  Tenants with
        no quota are unprotected (quotas *are* the protection).
        """
        tenant = entry.tenant
        if tenant is None or tenant == self.tenant:
            return True
        region = self.substrate.arbiter.region(REGION_CP)
        cap = region.quota(tenant)
        if cap is None:
            return True
        return region.tenant_usage(tenant) > cap


class Substrate:
    """Ownership root of the reuse substrate (cache + interner + arbiter).

    ``shared=False`` (the :class:`Session` default) reproduces the
    pre-refactor private object graph.  ``shared=True`` additionally
    maintains the tenant registry, the canonical dataset fingerprints
    (with one digest slot per dataset name), and the purity memo
    driving key namespacing.
    """

    def __init__(self, config: Optional[MemphisConfig] = None, *,
                 stats: Optional[Stats] = None, clock=None,
                 tracer=None, faults=None, shared: bool = False,
                 runtime: Optional[RuntimeContext] = None) -> None:
        #: captured once; a scheduler builds its sessions under it.
        rt = self.runtime = (runtime if runtime is not None
                             else current_runtime())
        self.config = config or MemphisConfig.memphis()
        self.shared = shared
        self.stats = stats if stats is not None else Stats()
        self.clock = clock if clock is not None else SimClock()
        if tracer is None and shared and rt.trace is not None:
            # like Session: a shared substrate built under a context
            # with a trace collector (harness --trace, tests) traces its
            # cross-hit/backpressure/attribution events into it instead
            # of silently dropping them.  Private substrates always
            # receive the owning session's tracer.
            tracer = rt.trace.tracer(self.clock, label="substrate")
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.arbiter = MemoryArbiter(
            self.stats, tracer=self.tracer, faults=faults
        )
        self.cache = LineageCache(
            self.config.cache, self.stats, clock=self.clock,
            disk_bytes_per_s=self.config.cpu.disk_bytes_per_s,
            flops_per_s=self.config.cpu.flops_per_s,
            tracer=self.tracer, faults=faults, arbiter=self.arbiter,
        )
        self.interner = LineageInterner(rt.ids)
        #: tenant name -> CP quota bytes (None = registered, no cap).
        self.tenants: dict[str, Optional[int]] = {}
        #: (producer tenant, consumer tenant) -> dedup benefit tallies
        #: (hits, bytes, Eq. 2 recompute cost avoided).  Fed by
        #: ``SessionContext.note_hit`` on every cross-session hit.
        self.attribution: dict[tuple[str, str], dict[str, float]] = {}
        #: tenant -> probe/hit and backpressure/admission-refusal/
        #: quota-refusal counts (the per-tenant split of the global
        #: ``server/`` counters).
        self.tenant_events: dict[str, defaultdict[str, int]] = {}
        #: dataset name -> canonical (first-registered) fingerprint.
        self._canonical_fp: dict[str, str] = {}
        #: dataset name -> (weakref to the last frozen array read under
        #: it, its fingerprint): one slot per name, and the slot does
        #: not keep its array alive.
        self._digests: dict[str, tuple[weakref.ref, str]] = {}
        #: purity/shareability memo over lineage DAGs, keyed by the
        #: (canonical, so identity-hashed) item itself.
        self._dag_info: dict[LineageItem, tuple[bool, frozenset]] = {}
        self._next_uid = 1

    @classmethod
    def shared_substrate(cls, config: Optional[MemphisConfig] = None,
                         **kw) -> "Substrate":
        """A substrate meant to be attached by many sessions."""
        return cls(config, shared=True, **kw)

    # -- session attachment --------------------------------------------------

    def attach(self, session: "Session",
               tenant: Optional[str] = None) -> SessionContext:
        """Attach one session; returns its namespacing/tenancy context."""
        uid = self._next_uid
        self._next_uid += 1
        name = tenant if tenant is not None else "default"
        if name not in self.tenants:
            self.tenants[name] = None
        self.stats.counts[SERVER_SESSIONS] += 1
        return SessionContext(self, uid, name)

    def activate(self, ctx: Optional[SessionContext]) -> None:
        """Make ``ctx`` the cache's active scope (scheduler interleave)."""
        self.cache._scope = ctx

    def set_quota(self, tenant: str, nbytes: Optional[int]) -> None:
        """Set a tenant's CP fair-share quota (None clears it)."""
        self.tenants[tenant] = nbytes
        self.arbiter.region(REGION_CP).set_quota(tenant, nbytes)

    # -- dataset fingerprints ------------------------------------------------

    def register_dataset(self, ctx: SessionContext, name: str,
                         data: Union[np.ndarray, float, int]) -> None:
        """Record a session's dataset content under ``name``.

        The first registration of a name fixes the canonical
        fingerprint; sessions whose content matches share ``data``-leaf
        lineage globally, all others stay session-scoped.  A
        :func:`frozen` array is digested once: reading the same object
        under the same name again takes the digest from the name's slot.
        A read-only array is the caller's promise that its bytes do not
        change; anything else is digested on every read.
        """
        if frozen(data):
            slot = self._digests.get(name)
            if slot is not None and slot[0]() is data:
                fp = slot[1]
            else:
                fp = fingerprint(data)
                self._digests[name] = (weakref.ref(data), fp)
        else:
            fp = fingerprint(data)
        ctx.fingerprints[name] = fp
        self._canonical_fp.setdefault(name, fp)
        # a re-read name can change whether the memoized key is shared
        ctx._last_key = None

    # -- namespacing ---------------------------------------------------------

    def shareable(self, ctx: SessionContext, item: LineageItem) -> bool:
        """Whether ``item`` may live under the global namespace for ``ctx``."""
        pure, names = self._dag_info.get(item) or self._analyze(item)
        if not pure:
            return False
        canonical = self._canonical_fp
        fingerprints = ctx.fingerprints
        for name in names:
            fp = fingerprints.get(name)
            if fp is None or canonical.get(name) != fp:
                return False
        return True

    def scope_key(self, opcode: str, key: LineageItem) -> LineageItem:
        """The session-scoped wrapper item for ``key`` (hash-consed);
        ``opcode`` is the session's ``SessionContext.scope_opcode``."""
        item, new = self.interner.wrap(opcode, key)
        if new:
            self.stats.counts[SERVER_SCOPED_KEYS] += 1
        return item

    def _analyze(self, item: LineageItem) -> tuple[bool, frozenset]:
        """(pure, data-leaf names) of ``item``'s DAG, into the memo."""
        pure = True
        names: list[str] = []
        for node in item.iter_dag():
            opcode = node.opcode
            if opcode in IMPURE_OPCODES:
                if opcode == "rand" and constant_fill(
                        attrs_from_data(node.data)):
                    continue
                pure = False
                break
            if (opcode.startswith(OP_FUNCTION)
                    or opcode.startswith(NS_PREFIX + ":")):
                pure = False
                break
            if opcode == OP_DATA and node.data:
                names.append(str(node.data[0]))
        info = (pure, frozenset(names))
        self._dag_info[item] = info
        return info

    # -- observability -------------------------------------------------------

    def note_attribution(self, producer: str, consumer: str,
                         nbytes: int, cost: float) -> None:
        """Credit one cross-session hit to its producer→consumer pair."""
        cell = self.attribution.get((producer, consumer))
        if cell is None:
            cell = self.attribution[(producer, consumer)] = {
                "hits": 0, "bytes": 0, "cost_avoided": 0.0,
            }
        cell["hits"] += 1
        cell["bytes"] += nbytes
        cell["cost_avoided"] += cost

    def note_tenant_event(self, tenant: str, kind: str) -> None:
        """Tally one per-tenant control-plane event (refusal class)."""
        self.events_of(tenant)[kind] += 1

    def events_of(self, tenant: str) -> defaultdict[str, int]:
        """The tenant's event tallies, created on first use; a session
        context holds its tenant's to count probes and hits in place."""
        events = self.tenant_events.get(tenant)
        if events is None:
            events = self.tenant_events[tenant] = defaultdict(int)
        return events

    def attribution_matrix(self) -> list[dict]:
        """The producer→consumer benefit matrix, deterministically ordered.

        One record per tenant pair with at least one cross-session hit:
        who produced, who consumed, how many hits, how many bytes were
        deduplicated, and the summed recompute cost (Eq. 2's benefit
        term) the consumer avoided.
        """
        out = []
        for (producer, consumer) in sorted(self.attribution):
            cell = self.attribution[(producer, consumer)]
            out.append({
                "producer": producer,
                "consumer": consumer,
                "hits": int(cell["hits"]),
                "bytes": int(cell["bytes"]),
                "cost_avoided": float(cell["cost_avoided"]),
            })
        return out

    def tenant_occupancy(self) -> dict[str, dict[str, int]]:
        """Per-tenant CP usage/quota snapshot (``server/`` namespace)."""
        region = self.arbiter.region(REGION_CP)
        return {
            tenant: {
                "used": region.tenant_usage(tenant),
                "quota": self.tenants[tenant],
            }
            for tenant in sorted(self.tenants)
        }

    def audit(self) -> None:
        """Assert the substrate's conservation laws (tests, sweeps):
        the cache's ledgers and victim index against its entries
        (:meth:`LineageCache.audit`), every region's invariants and
        the quiescent ``reserved == 0`` law (:meth:`MemoryArbiter.check`),
        and the attribution matrix summing to the cross-session hit and
        deduplicated-byte counters."""
        self.cache.audit()
        self.arbiter.check()
        cells = self.attribution.values()
        for field, counter in (("hits", SERVER_CROSS_HITS),
                               ("bytes", SERVER_DEDUP_BYTES)):
            attributed = sum(cell[field] for cell in cells)
            assert attributed == self.stats.get(counter), \
                f"attributed {field} {attributed} != {counter} " \
                f"{self.stats.get(counter)}"

    def metrics_gauges(self) -> dict[str, float]:
        """Gauge snapshot for the metrics sampler (shared mode only)."""
        out: dict[str, float] = {}
        region = self.arbiter.region(REGION_CP)
        for tenant in self.tenants:
            out[f"server/tenant/{tenant}/cp_used"] = float(
                region.tenant_usage(tenant)
            )
            headroom = region.quota_headroom(tenant)
            if headroom is not None:
                out[f"server/tenant/{tenant}/quota_headroom"] = \
                    float(headroom)
        dedup: dict[str, int] = {}
        for (producer, _), cell in self.attribution.items():
            dedup[producer] = dedup.get(producer, 0) + int(cell["bytes"])
        for tenant, nbytes in dedup.items():
            out[f"server/tenant/{tenant}/dedup_bytes_produced"] = \
                float(nbytes)
        out["server/sessions"] = float(self._next_uid - 1)
        return out
