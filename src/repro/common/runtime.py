"""The runtime context: every process-wide collaborator in one object.

MEMPHIS manages reuse and memory *holistically* — one lineage cache and
one arbiter seen by every backend.  The same holds for what a run is
observed and perturbed by: a :class:`RuntimeContext` carries the trace /
explain / analysis collectors, the fault plan, the shared substrate, the ``configure`` hook every new config passes
through, and the one :class:`IdSpace` that numbers HOPs, lineage items,
RDDs, broadcasts and GPU pointers.

``Session`` and ``Substrate`` take an explicit ``runtime=`` (default:
:func:`current`) and ``FederatedCoordinator`` reads :func:`current`;
each captures its context once at construction and hands it down.
Nothing re-reads the current context afterwards, so a session keeps
working — with the same collaborators and the same id space — after
the scope that built it has exited, and two servers under two contexts
can interleave in one process.

There is one process-current context and one way to change it::

    with runtime.scope(trace=TraceCollector(), faults=plan) as rt:
        run_workload()              # sessions built here pick rt up
    rt.trace.events()

    with RuntimeContext():          # fresh id space: ids restart at 1
        run_workload()

:func:`scope` *derives* from the enclosing context: the named
collaborators are replaced, everything else — the id space included — is
shared.  Sharing the ids is what keeps a DAG's hop ids unique when a
session built inside a scope builds more handles after it exits.  Only
an explicit ``RuntimeContext()`` starts a new id space.

``configure`` — a function applied to every new ``MemphisConfig`` — is
the one road to the configs experiment drivers build internally (harness
``--policy``, the ablations, the feature matrix).  A
nested ``scope(configure=...)`` does not replace the enclosing hook but
runs after it, so the inner one wins on any field both set.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - keeps repro.common import-light
    from repro.analysis.hook import AnalysisCollector
    from repro.common.config import MemphisConfig
    from repro.core.substrate import Substrate
    from repro.faults.plan import FaultPlan
    from repro.obs.explain import ExplainCollector
    from repro.obs.tracer import TraceCollector


class IdSpace:
    """The five id allocators of one runtime (each counts from 1).

    Ids are continuous across the sessions of one space — the second
    session's first hop is not id 1 — which is what makes hop ids usable
    as dictionary keys across DAGs and multi-session traces stable.
    """

    __slots__ = ("hop", "lineage", "rdd", "broadcast", "pointer")

    def __init__(self) -> None:
        self.hop = itertools.count(1)
        self.lineage = itertools.count(1)
        self.rdd = itertools.count(1)
        self.broadcast = itertools.count(1)
        self.pointer = itertools.count(1)


class RuntimeContext:
    """What a run is observed, perturbed and numbered by.

    Every collaborator is ``None`` unless supplied; ``None`` means "the
    context has none", and a session then uses the NULL singleton — the
    context is the one activation of tracing, explain capture, static
    analysis (verification and memory planning, one collector) and fault
    injection (``scope(explain=ExplainCollector())``); no config field
    duplicates a slot.  Use as a context manager to make it the process-current
    context; exiting restores the one it displaced, also on exceptions.
    """

    __slots__ = ("trace", "explain", "analysis", "faults", "substrate",
                 "configure", "ids")

    def __init__(self, *,
                 trace: Optional["TraceCollector"] = None,
                 explain: Optional["ExplainCollector"] = None,
                 analysis: Optional["AnalysisCollector"] = None,
                 faults: Optional["FaultPlan"] = None,
                 substrate: Optional["Substrate"] = None,
                 configure: Optional[
                     Callable[["MemphisConfig"], None]] = None,
                 ids: Optional[IdSpace] = None) -> None:
        #: sessions (and shared substrates, coordinators) trace into it,
        #: gauge samples included.
        self.trace = trace
        #: sessions snapshot every compiled block into it.
        self.explain = explain
        #: sessions plan and verify every compiled block (without
        #: raising) into it, and register their memory planner with it.
        self.analysis = analysis
        #: fault plan sessions and federated coordinators inject.
        self.faults = faults
        #: shared substrate sessions attach to when given none.
        self.substrate = substrate
        #: called on every new :class:`~repro.common.config.MemphisConfig`
        #: after the system's own settings, to override fields in place.
        self.configure = configure
        self.ids = ids if ids is not None else IdSpace()

    def __enter__(self) -> "RuntimeContext":
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE.pop()


#: the one process-current slot: the top of this stack.  The bottom entry
#: is the process-default context code runs against when nothing was
#: activated; ``with`` blocks push and pop above it.
_ACTIVE: list[RuntimeContext] = [RuntimeContext()]


def current() -> RuntimeContext:
    """The process-current context (the innermost active ``with``)."""
    return _ACTIVE[-1]


def scope(**overrides) -> RuntimeContext:
    """A context derived from the current one, to be entered with ``with``.

    ``with scope(trace=tc, faults=plan) as rt:`` replaces the named
    collaborators for the block and shares everything else, the id
    space included, with the enclosing context.  ``configure`` composes
    instead: the enclosing hook still runs, before the given one.
    """
    enclosing = current()
    fields = {name: getattr(enclosing, name)
              for name in RuntimeContext.__slots__}
    outer, inner = enclosing.configure, overrides.get("configure")
    if outer is not None and inner is not None:
        def both(config: "MemphisConfig") -> None:
            outer(config)
            inner(config)
        overrides["configure"] = both
    fields.update(overrides)
    return RuntimeContext(**fields)
