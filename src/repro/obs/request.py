"""Request-scoped observability for the multi-tenant reuse server.

Per-session traces answer *what did this session do*; a shared
substrate raises operator questions they cannot: which request was
slow, which tenant tripped admission control, whose cached entry
another tenant is hitting.  :class:`RequestContext` is the layer that
answers them: the trace context the
:class:`~repro.server.scheduler.Scheduler` mints per request and binds
onto the tracers of the request's session and of the shared substrate.
While bound, every span, instant, and diagnostic the session/substrate
emit carries ``request_id``/``tenant`` args (see
:meth:`repro.obs.tracer.Tracer.bind_request`), so a Chrome-trace export
can group lanes per tenant and a timeline viewer can answer *which
request caused this eviction*.

A failed request's post-mortem is a re-run of the same seed under
``--trace``: the scheduler's interleave is seeded, so the traced run
replays the failure with every event recorded.

Zero-overhead contract: nothing in this module touches the
per-instruction hot path.  Tracer binding is a no-op on
:data:`~repro.obs.tracer.NULL_TRACER`, and with observability off the
interpreter still selects the fast dispatch loop
(``tests/test_dispatch_equivalence.py`` pins this).
"""

from __future__ import annotations


class RequestContext:
    """Trace context of one server request (id, tenant, interleave seed).

    Minted by the scheduler — one per submitted request, with a
    deterministic id derived from the submission index — and carried
    through ``Session.evaluate`` into every layer that emits events:
    the dispatch loops, the memory arbiter, the lineage cache, and the
    shared substrate all trace through tracers this context is bound
    to, so their events inherit ``request_id``/``tenant`` without any
    per-call-site plumbing.
    """

    __slots__ = ("request_id", "tenant", "seed", "name")

    def __init__(self, request_id: str, tenant: str, seed: int = 0,
                 name: str = "") -> None:
        self.request_id = request_id
        self.tenant = tenant
        self.seed = seed
        self.name = name or request_id

    def as_args(self) -> dict:
        """The args every event under this request carries."""
        return {"request_id": self.request_id, "tenant": self.tenant}

    def __repr__(self) -> str:
        return (f"RequestContext({self.request_id!r}, "
                f"tenant={self.tenant!r}, seed={self.seed})")
