"""Deterministic multi-session scheduler for the shared substrate.

The driver loop of the reuse server: requests are submitted per tenant,
each gets its own :class:`~repro.core.session.Session` attached to the
shared :class:`~repro.core.substrate.Substrate`, and a seeded
``random.Random`` interleave decides which request advances at every
scheduler step — many logical sessions, one deterministic execution
order for a given seed.

Programs are plain callables ``program(session) -> result``.  A program
that wants to be *interleaved* mid-flight returns a generator instead:
every ``yield`` is a scheduling point, and the generator's ``return``
value becomes the request's result.  A program that returns a plain
value simply runs to completion in one step.

Admission refusals (:class:`~repro.common.errors.AdmissionError`, the
strict quota/occupancy gate in ``Session.evaluate``) are backpressure,
not failures: the scheduler restarts the request's program on the same
session — reuse makes the replay cheap — up to ``max_retries`` times
before marking it failed.

Request observability (``repro.obs.request``): the scheduler mints one
:class:`~repro.obs.request.RequestContext` per request and binds it
onto the request's session and the substrate tracer on every quantum,
so every traced span/instant under a request carries
``request_id``/``tenant``.  A failed request names its error in
:attr:`RequestResult.error`; since the interleave is seeded, the
post-mortem is the same seed re-run under ``--trace``.
"""

from __future__ import annotations

import random
from types import GeneratorType
from typing import Callable, Optional

from repro.common.config import MemphisConfig
from repro.common.errors import AdmissionError
from repro.common.simclock import HOST
from repro.common.stats import SERVER_REQUESTS, SERVER_STEPS, Stats
from repro.core.session import Session
from repro.core.substrate import Substrate
from repro.obs.events import EV_SERVER_REQUEST, EV_SERVER_STEP
from repro.obs.request import RequestContext


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100]).

    Exact (no interpolation, no bucketing) and deterministic — the SLO
    report uses it on raw per-request sim latencies, where a histogram
    approximation would hide small regressions.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


class Request:
    """One submitted unit of work: a tenant and a program."""

    __slots__ = ("tenant", "name", "program")

    def __init__(self, tenant: str, program: Callable,
                 name: str) -> None:
        self.tenant = tenant
        self.program = program
        self.name = name


class RequestResult:
    """Outcome of one request after the scheduler drained it."""

    __slots__ = ("name", "tenant", "request_id", "ok", "value", "error",
                 "steps", "retries", "sim_latency_s")

    def __init__(self, name: str, tenant: str,
                 request_id: str = "") -> None:
        self.name = name
        self.tenant = tenant
        self.request_id = request_id
        self.ok = False
        self.value = None
        self.error: Optional[str] = None
        self.steps = 0
        self.retries = 0
        #: host sim-clock seconds the request's session consumed by the
        #: time the request finished (includes backpressure replays).
        self.sim_latency_s = 0.0

    def as_record(self) -> dict:
        return {
            "name": self.name,
            "tenant": self.tenant,
            "request_id": self.request_id,
            "ok": self.ok,
            "error": self.error,
            "steps": self.steps,
            "retries": self.retries,
            "sim_latency_s": self.sim_latency_s,
        }


class _Task:
    """Scheduler-internal live state of one request."""

    __slots__ = ("request", "session", "ctx", "gen", "result")

    def __init__(self, request: Request, session: Session,
                 ctx: RequestContext) -> None:
        self.request = request
        self.session = session
        self.ctx = ctx
        self.gen: Optional[GeneratorType] = None
        self.result = RequestResult(request.name, request.tenant,
                                    ctx.request_id)


class ServerReport:
    """Aggregated outcome of one :meth:`Scheduler.run`."""

    def __init__(self, substrate: Substrate,
                 results: list[RequestResult],
                 sessions: list[Session]) -> None:
        self.results = results
        self.sessions = sessions
        #: substrate-level counters (cache + server namespaces).
        self.substrate_counters = substrate.stats.counters()
        #: per-tenant CP occupancy/quota snapshot.
        self.tenants = substrate.tenant_occupancy()
        #: producer→consumer dedup benefit matrix (Eq. 2 accounting).
        self.attribution = substrate.attribution_matrix()
        #: per-tenant SLO metrics (latency percentiles, hit rate, ...).
        self.slo = self._build_slo(substrate, results, self.tenants,
                                   self.attribution)
        #: merged counters across the substrate and every session.
        merged = Stats().merge(substrate.stats)
        for session in sessions:
            merged.merge(session.stats)
        self.merged = merged

    @staticmethod
    def _build_slo(substrate: Substrate, results: list[RequestResult],
                   occupancy: dict[str, dict],
                   attribution: list[dict]) -> dict[str, dict]:
        """Per-tenant SLO record: one row per registered tenant."""
        consumed: dict[str, dict[str, float]] = {}
        produced: dict[str, int] = {}
        for cell in attribution:
            c = consumed.setdefault(cell["consumer"], {"hits": 0, "bytes": 0})
            c["hits"] += cell["hits"]
            c["bytes"] += cell["bytes"]
            produced[cell["producer"]] = (
                produced.get(cell["producer"], 0) + cell["bytes"]
            )
        out: dict[str, dict] = {}
        for tenant in sorted(substrate.tenants):
            rs = [r for r in results if r.tenant == tenant]
            latencies = [r.sim_latency_s for r in rs if r.ok]
            events = substrate.tenant_events.get(tenant, {})
            probes = events.get("probes", 0)
            hits = events.get("hits", 0)
            occ = occupancy.get(tenant, {})
            quota = occ.get("quota")
            out[tenant] = {
                "tenant": tenant,
                "requests": len(rs),
                "completed": sum(1 for r in rs if r.ok),
                "failed": sum(1 for r in rs if not r.ok),
                "retries": sum(r.retries for r in rs),
                "latency_p50_s": percentile(latencies, 50),
                "latency_p99_s": percentile(latencies, 99),
                "probes": probes,
                "hits": hits,
                "hit_rate": (hits / probes) if probes else 0.0,
                "cross_session_hits": int(
                    consumed.get(tenant, {}).get("hits", 0)
                ),
                "dedup_bytes_consumed": int(
                    consumed.get(tenant, {}).get("bytes", 0)
                ),
                "dedup_bytes_produced": int(produced.get(tenant, 0)),
                "backpressure_events": events.get("backpressure_events", 0),
                "admission_refusals": events.get("admission_refusals", 0),
                "quota_refusals": events.get("quota_refusals", 0),
                "cp_used": occ.get("used", 0),
                "cp_quota": quota,
                "quota_headroom": (
                    quota - occ.get("used", 0) if quota is not None else None
                ),
            }
        return out

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def counter(self, name: str) -> int:
        return self.merged.get(name)

    def server_counter(self, name: str) -> int:
        return self.substrate_counters.get(name, 0)

    def as_record(self) -> dict:
        """Deterministic JSON-friendly snapshot (smoke/CI comparisons)."""
        return {
            "ok": self.ok,
            "requests": [r.as_record() for r in self.results],
            "server": {
                name: count
                for name, count in sorted(self.substrate_counters.items())
                if name.startswith("server/")
                or name.startswith("cache/")
            },
            "tenants": self.tenants,
            "slo": self.slo,
            "attribution": self.attribution,
        }

    def format(self) -> str:
        lines = ["=== server report ==="]
        for r in self.results:
            status = "ok" if r.ok else f"FAILED ({r.error})"
            lines.append(
                f"  {r.name:<12s} tenant={r.tenant:<8s} "
                f"steps={r.steps:<4d} retries={r.retries} {status}"
            )
        for name in ("server/sessions_attached",
                     "server/cross_session_hits",
                     "server/dedup_bytes_saved",
                     "server/blocks_admitted",
                     "server/backpressure_events",
                     "server/quota_refusals"):
            lines.append(f"  {name:<32s} {self.server_counter(name):>12d}")
        for tenant, occ in self.tenants.items():
            quota = occ["quota"] if occ["quota"] is not None else "-"
            lines.append(
                f"  tenant {tenant:<8s} cp_used={occ['used']:<12d} "
                f"quota={quota} pinned_entries={occ['pinned_entries']}"
            )
        if self.slo:
            lines.append("  -- per-tenant SLO --")
            for tenant, row in self.slo.items():
                lines.append(
                    f"  {tenant:<8s} req={row['completed']}/"
                    f"{row['requests']:<3d} "
                    f"p50={row['latency_p50_s']:.6f}s "
                    f"p99={row['latency_p99_s']:.6f}s "
                    f"hit_rate={row['hit_rate']:.3f} "
                    f"bp={row['backpressure_events']} "
                    f"refused={row['admission_refusals']}"
                )
        if self.attribution:
            lines.append("  -- attribution (producer -> consumer) --")
            for cell in self.attribution:
                lines.append(
                    f"  {cell['producer']:<8s} -> {cell['consumer']:<8s} "
                    f"hits={cell['hits']:<4d} bytes={cell['bytes']:<10d} "
                    f"cost_avoided={cell['cost_avoided']:.3e}"
                )
        return "\n".join(lines)


class Scheduler:
    """Run many sessions against one shared substrate, deterministically.

    ``seed`` fixes the interleave: every scheduler step draws the next
    runnable request from a ``random.Random(seed)``, so two runs with
    the same seed and submissions execute identically (same hit/miss
    sequence, same counters, same results).

    A scheduler runs under its substrate's runtime context
    (``substrate.runtime``, captured when the substrate was built): its
    sessions are created with it, so a scheduler built under one context
    can be run while another is current.  Every session, and the
    default substrate, is configured by
    :meth:`MemphisConfig.server_session`.
    """

    def __init__(self, substrate: Optional[Substrate] = None, *,
                 seed: int = 0, max_retries: int = 8) -> None:
        self.substrate = substrate if substrate is not None \
            else Substrate.shared_substrate(MemphisConfig.server_session())
        self.seed = seed
        self.max_retries = max_retries
        self._requests: list[Request] = []
        self.sessions: list[Session] = []

    # -- submission ----------------------------------------------------------

    def add_tenant(self, name: str,
                   cp_quota: Optional[int] = None) -> None:
        """Register a tenant (optionally with a CP fair-share quota)."""
        self.substrate.set_quota(name, cp_quota)

    def submit(self, tenant: str, program: Callable,
               name: Optional[str] = None) -> Request:
        """Queue ``program`` to run as ``tenant``; returns the request."""
        request = Request(
            tenant, program,
            name if name is not None else f"r{len(self._requests)}",
        )
        self._requests.append(request)
        self.substrate.stats.inc(SERVER_REQUESTS)
        return request

    # -- driver loop ---------------------------------------------------------

    def run(self) -> ServerReport:
        """Drain the request queue; returns the aggregated report."""
        rng = random.Random(self.seed)
        runtime = self.substrate.runtime
        tasks = []
        for index, request in enumerate(self._requests):
            # sessions attach in submit order, so uids — and therefore
            # key namespaces — are deterministic; each gets a fresh
            # config (auto-tuning mutates per-session knobs)
            session = Session(
                MemphisConfig.server_session(), substrate=self.substrate,
                tenant=request.tenant, runtime=runtime,
            )
            ctx = RequestContext(
                f"req-{index:03d}-{request.name}", request.tenant,
                seed=self.seed, name=request.name,
            )
            session.bind_request(ctx)
            if session.trace_collector is not None:
                session.trace_collector.session_labels[
                    session.tracer.session_id
                ] = f"{request.name}@{request.tenant}"
            self.sessions.append(session)
            tasks.append(_Task(request, session, ctx))
        self._requests = []
        active = list(tasks)
        while active:
            index = rng.randrange(len(active)) if len(active) > 1 else 0
            if self._step(active[index]):
                active.pop(index)
        self.substrate.activate(None)
        self.substrate.tracer.bind_request(None)
        return ServerReport(self.substrate, [t.result for t in tasks],
                            self.sessions)

    def _step(self, task: _Task) -> bool:
        """Advance one request by one scheduling quantum; True = done."""
        substrate = self.substrate
        substrate.stats.inc(SERVER_STEPS)
        task.result.steps += 1
        substrate.activate(task.session._ctx)
        tracer = substrate.tracer
        if tracer.enabled:
            tracer.bind_request(task.ctx)
            tracer.instant(
                EV_SERVER_STEP, tenant=task.request.tenant,
                request=task.request.name, step=task.result.steps,
            )
        try:
            if task.gen is None:
                out = task.request.program(task.session)
                if isinstance(out, GeneratorType):
                    task.gen = out
                    return False
                return self._finish(task, out)
            next(task.gen)
            return False
        except StopIteration as stop:
            return self._finish(task, stop.value)
        except AdmissionError as exc:
            # backpressure: the generator (if any) died with the raise,
            # so restart the program on the same session — reuse makes
            # the replay cheap — until the retry budget runs out
            task.gen = None
            task.result.retries += 1
            if task.result.retries > self.max_retries:
                task.result.error = f"admission refused: {exc}"
                return True
            return False
        except Exception as exc:  # noqa: BLE001 - fault isolation
            # one tenant's failure must not take the server down
            task.result.error = f"{type(exc).__name__}: {exc}"
            return True

    def _finish(self, task: _Task, value) -> bool:
        """Mark a request complete; record its SLO latency sample."""
        task.result.value = value
        task.result.ok = True
        latency = task.session.clock.now(HOST)
        task.result.sim_latency_s = latency
        tracer = self.substrate.tracer
        if tracer.enabled:
            tracer.instant(
                EV_SERVER_REQUEST, ok=True, latency_s=latency,
                steps=task.result.steps, retries=task.result.retries,
            )
        return True
