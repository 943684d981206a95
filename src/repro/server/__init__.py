"""Multi-tenant reuse server over a shared substrate (ROADMAP item 1).

Many concurrent sessions multiplexed onto one
:class:`~repro.core.substrate.Substrate`: one lineage cache, one
interner, one CP/DISK arbiter — so tenant B's pure subexpressions hit
what tenant A just cached (``server/cross_session_hits``), while
seeded/impure work stays session-scoped and per-tenant quotas keep a
greedy tenant from evicting a well-behaved one (see docs/SERVER.md).

The :class:`Scheduler` runs a request stream deterministically: a
seeded interleave picks which request advances next, admission refusals
(:class:`~repro.common.errors.AdmissionError`) surface as backpressure
and requeue the request, and the :class:`ServerReport` aggregates
per-request outcomes, merged counters, per-tenant occupancy and SLO
metrics, and a producer→consumer cost-attribution matrix — the one
server report: ``as_record()`` for code, ``format()`` for people.  A
failed request's post-mortem is the same seed re-run under a trace
(see ``repro.obs.request``).
"""

from repro.server.demo import (
    impure_program,
    pure_program,
    run_server_demo,
)
from repro.server.scheduler import (
    Request,
    RequestResult,
    Scheduler,
    ServerReport,
)

__all__ = [
    "Request",
    "RequestResult",
    "Scheduler",
    "ServerReport",
    "pure_program",
    "impure_program",
    "run_server_demo",
]
