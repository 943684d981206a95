"""Gauge sampling: trajectories as counter events on the tracer.

Where spans and instants record what *happened*, gauges record how
state *evolved*: how the memory regions fill up, what fraction of
Spark's unified memory holds cached storage, how GPU residency and
pointer recycling develop — the occupancy / eviction curves the paper
plots (Fig. 12) and that end-of-run counter totals cannot show.

There is no second pipeline: :func:`sample` reads every source and hands
each value to :meth:`Tracer.counter <repro.obs.tracer.Tracer.counter>`,
which emits a ``ph: "C"`` event through the tracer's one ``emit`` choke
point — request-stamped, ring-buffered and Chrome-exported like every
other event — and only when the value changed since
that session's last sample.  The dispatch loop calls it every
:data:`SAMPLE_EVERY` traced instructions and ``Session.evaluate`` once
per block, so an untraced run never samples.  Sampling reads ledgers and
counters (``Stats.get`` never inserts) and never advances the sim clock:
a traced run stays byte-identical to a plain one.

Rates (sliding-window cache hit-rate, GPU recycle-rate) are not sampled:
the cumulative :data:`RATE_COUNTERS` are, and ``repro.obs.summary``
derives the windows when it renders the gauge digest.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.stats import (
    CACHE_HITS,
    GPU_MALLOCS,
    GPU_RECYCLED,
    INSTRUCTIONS_EXECUTED,
    LINEAGE_PROBES,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.session import Session
    from repro.runtime.interpreter import Interpreter

#: sampling period of the dispatch loop, in traced instructions.
SAMPLE_EVERY = 8

#: cumulative stats counters sampled as tracks of their own name.
RATE_COUNTERS = (
    CACHE_HITS, LINEAGE_PROBES, GPU_RECYCLED, GPU_MALLOCS,
    INSTRUCTIONS_EXECUTED,
)


def sample(owner: "Session | Interpreter") -> None:
    """Hand every gauge of a session to its tracer, stamped at host now.

    ``owner`` is the session or its interpreter: both carry the
    session's ``tracer``, ``stats``, ``substrate`` and ``tiers``.
    """
    counter = owner.tracer.counter
    substrate = owner.substrate
    tiers = owner.tiers
    regions = tiers.arbiter.regions()
    # each manager adds the curves only it knows; region occupancy
    # (``memory/<REGION>/…``) already covers every ledger.  A Spark or
    # GPU tier not built yet reports zeros and builds nothing.
    sources = [substrate.cache, tiers]
    if substrate.shared:
        # CP / DISK live on the shared arbiter; per-tenant occupancy and
        # the attached-session count come from the substrate, under server/
        regions = regions + substrate.arbiter.regions()
        sources.append(substrate)
    for region in regions:
        base = f"memory/{region.name}"
        counter(base + "/used", region.used)
        counter(base + "/reserved", region.reserved)
        if not region.unlimited and region.capacity > 0:
            counter(base + "/occupancy", region.occupancy)
    for source in sources:
        for name, value in source.metrics_gauges().items():
            counter(name, value)
    stats = owner.stats
    for name in RATE_COUNTERS:
        counter(name, stats.get(name))
