"""Static memory planner: compile-time peak footprints per region (MEM rules).

MEMPHIS discovers memory pressure *reactively*: the arbiter evicts and
spills when a reservation fails at runtime.  This pass family bounds a
block's footprint *before* it runs — the idea of "Memory Safe
Computations with XLA Compiler" (PAPERS.md) transplanted onto the HOP
DAG, the way SystemML-style compilers budget intermediates ahead of
execution.  For one linearized instruction stream the planner, in one
walk of the stream:

* derives, from ``Hop.output_bytes`` and the stream's def-use chains,
  every byte charge the runtime can make against the five canonical
  :class:`~repro.memory.region.MemoryRegion` ledgers (``CP``, ``DISK``,
  ``SP_BLOCKS``, ``SP_CACHE``, ``GPU``), summing each region's demand
  as it goes — see :func:`plan_block` for the charge model and its
  soundness argument;
* computes per-region liveness intervals and the block's peak resident
  footprint per region (in this runtime a value stays resident until
  the end of its block — GPU pointers are held on the acquired list,
  cache tiers are sticky — so intervals run ``[def, block end]``);
* emits ``MEM``-family diagnostics when a plan exceeds a region's
  configured capacity;
* feeds ``Session.evaluate``: on a shared substrate the predicted
  CP/DISK peaks pass the multi-tenant admission gate
  (:meth:`~repro.memory.arbiter.MemoryArbiter.admissible`) before the
  block runs.  The plan only *predicts*: pressure at runtime stays the
  arbiter's business (eviction, Algorithm 1), and a block that
  over-peaks the device is an error for the verifier to report, not
  something a second eviction road repairs.

A session plans when its runtime context carries an
:class:`~repro.analysis.hook.AnalysisCollector`
(``runtime.scope(analysis=...)``), which then checks the plan with the
rest of the verifier and collects the session's planner, or when it is
attached to a shared substrate, whose admission gate needs the plan.

Rule catalog (see docs/ANALYSIS.md):

========  ========  =============================================================
rule      severity  meaning
========  ========  =============================================================
MEM001    error     one instruction's working set exceeds its execution
                    region's total capacity — infeasible at any schedule
MEM002    error     block's device liveness peak exceeds the GPU capacity:
                    the block is predicted to run out of device memory
MEM003    warning   sticky cache-tier demand (CP / SP_CACHE / SP_BLOCKS)
                    exceeds capacity: eviction churn predicted
MEM004    info      predicted peak crosses the region's pressure watermark
MEM005    warning   planned CP spill volume exceeds the DISK budget: the
                    spill tier will drop the overflow
========  ========  =============================================================

Planning never changes answers: it is pure analysis and touches no
ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional

if TYPE_CHECKING:  # layering: runtime types are type-only imports here
    from repro.core.session import Session
    from repro.memory.arbiter import MemoryArbiter

from repro.analysis.base import AnalysisContext
from repro.analysis.diagnostics import Diagnostic, Severity, diag
from repro.common.config import MemphisConfig, ReuseMode
from repro.compiler.ir import KIND_DATA, KIND_LITERAL, KIND_OP, Hop
from repro.core.entry import BACKEND_CP, BACKEND_GPU, BACKEND_SP
from repro.memory.budget import (
    REGION_CP,
    REGION_DISK,
    REGION_GPU,
    REGION_SPARK_CACHE,
    REGION_SPARK_STORAGE,
    RegionBudget,
    align,
    gpu_working_set,
    region_capacities,
)

#: all regions a plan reports, in display order — exactly the regions a
#: session's arbiter registers (``memory.budget.region_capacities``).
#: Every one's residency is *sticky across blocks* in this runtime:
#: cache tiers retain entries between blocks, and the GPU pool keeps
#: ``used`` charged until actual frees (release only moves pointers to
#: the free lists, Fig. 8(b)) — so session-level predictions accumulate.
PLAN_REGIONS = (REGION_CP, REGION_DISK, REGION_SPARK_STORAGE,
                REGION_SPARK_CACHE, REGION_GPU)

#: pressure watermark for MEM004, as a fraction of the region's capacity.
PRESSURE_WATERMARK = 0.9


class RegionCharge(NamedTuple):
    """One potential byte charge of a block against one region.

    ``start`` is the stream position at which the charge becomes live;
    in this runtime every charge stays resident to the end of its block
    (``end``), so the interval is ``[start, end]``.  ``reason`` tags
    the runtime path that would make the charge (``put``, ``exchange``,
    ``persist``, ``alloc``, ``upload``, ``function``).
    """

    hop: Hop
    region: str
    nbytes: int
    start: int
    end: int
    reason: str


@dataclass
class BlockMemPlan:
    """Static memory plan of one compiled basic block."""

    order: list[Hop]
    roots: list[Hop]
    #: every charge the block can make, in stream order.
    charges: list[RegionCharge]
    #: region -> raw (unclamped) cumulative byte demand of this block.
    demand: dict[str, int]
    #: region -> predicted peak, clamped at capacity for bounded
    #: regions (a bounded ledger never overcommits, so the clamp is
    #: sound — see :func:`plan_block`).
    peaks: dict[str, int]
    #: configured budgets the plan was checked against.
    budgets: dict[str, RegionBudget]

    def admission_demands(self) -> dict[str, int]:
        """Per-region predicted peaks for the admission gate."""
        return {name: peak for name, peak in self.peaks.items() if peak > 0}

    def charges_by_hop(self) -> dict[int, dict[str, int]]:
        """hop id -> region -> total bytes (for the footprint table)."""
        out: dict[int, dict[str, int]] = {}
        for charge in self.charges:
            per = out.setdefault(charge.hop.id, {})
            per[charge.region] = per.get(charge.region, 0) + charge.nbytes
        return out


def plan_block(roots: list[Hop], order: list[Hop], config: MemphisConfig,
               budgets: Optional[dict[str, RegionBudget]] = None
               ) -> BlockMemPlan:
    """Derive the per-region charge set and peak footprint of one block.

    One walk of ``order`` appends each charge and adds it to its
    region's demand.  A :class:`SessionMemPlanner` passes its own
    ``budgets``; the default is ``region_capacities(config)``.

    The charge model is a *sound upper bound* on the region ledgers: it
    enumerates every code path that charges a region and bounds each
    charge by ``Hop.output_bytes`` (the dense worst-case size, which
    dominates the runtime ``value.nbytes``):

    * ``CP`` — the PUT stage offers every driver-side result to the
      lineage cache, and collected / device-to-host / future exchange
      copies ride along under the same key: with puts enabled, every op
      hop is charged (``LOCAL_ONLY`` restricts to CP-placed hops, the
      LIMA contract), plus non-CP-resident data leaves that a consumer
      may collect; function-level reuse (FULL / COARSE_ONLY) re-puts
      the block outputs under a distinct function key, covered by one
      root-output allowance per block.
    * ``DISK`` — receives only CP spills; each entry is on disk at most
      once concurrently, so CP demand bounds it (0 when spilling off).
    * ``SP_BLOCKS`` — only *persisted* memory-resident partitions are
      charged (shuffles never are): every SP-placed op hop's output is
      an upper bound over cache/checkpoint/explicit persists.
    * ``SP_CACHE`` — ``cache_rdd`` charges SP payloads of SP-placed put
      hops when multi-backend puts are on.
    * ``GPU`` — one aligned allocation per GPU-placed op output plus
      one per host-to-device upload of a non-resident input, matching
      the allocator's 512 B granularity.

    Bounded regions never overcommit (``used + reserved <= capacity``
    is a ledger invariant), so the predicted peak of a bounded region
    is clamped at its capacity — making *predicted >= observed* hold
    even when the raw demand estimate exceeds what the runtime can
    physically hold.
    """
    if budgets is None:
        budgets = region_capacities(config)
    mode = config.reuse_mode
    put_on = mode.puts
    multi = put_on and mode is not ReuseMode.LOCAL_ONLY
    func_reuse = mode in (ReuseMode.FULL, ReuseMode.COARSE_ONLY)
    alignment = config.gpu.alignment
    end = len(order) - 1
    charges: list[RegionCharge] = []
    demand = {name: 0 for name in PLAN_REGIONS}
    on_device: set[int] = set()

    def charge(hop: Hop, region: str, nbytes: int, start: int,
               reason: str) -> None:
        charges.append(RegionCharge(hop, region, nbytes, start, end, reason))
        demand[region] += nbytes

    for pos, hop in enumerate(order):
        if hop.kind == KIND_LITERAL or hop.fused:
            continue
        if hop.kind == KIND_DATA:
            if multi and hop.placement != BACKEND_CP:
                # a non-driver-resident leaf a consumer collects is
                # cached by the exchange ride-along (action reuse)
                charge(hop, REGION_CP, hop.output_bytes, pos, "exchange")
            continue
        out = hop.output_bytes
        placement = hop.placement
        if put_on and (multi or placement == BACKEND_CP):
            charge(hop, REGION_CP, out, pos, "put")
        if placement == BACKEND_SP:
            charge(hop, REGION_SPARK_STORAGE, out, pos, "persist")
            if multi:
                charge(hop, REGION_SPARK_CACHE, out, pos, "put")
        elif placement == BACKEND_GPU:
            charge(hop, REGION_GPU, align(out, alignment), pos, "alloc")
            on_device.add(hop.id)
            for inp in hop.inputs:
                if (inp.kind == KIND_LITERAL or inp.id in on_device
                        or inp.placement == BACKEND_GPU):
                    continue
                on_device.add(inp.id)
                charge(inp, REGION_GPU, align(inp.output_bytes, alignment),
                       pos, "upload")
    if func_reuse and roots:
        # function-level reuse snapshots the block outputs under a
        # separate function key, re-charging their bytes once per block
        for root in roots:
            charge(root, REGION_CP, root.output_bytes, end, "function")

    if config.cache.spill_to_disk:
        # DISK receives only CP spills, each entry at most once
        demand[REGION_DISK] = demand[REGION_CP]

    peaks: dict[str, int] = {}
    for name in PLAN_REGIONS:
        budget = budgets[name]
        raw = demand[name]
        peaks[name] = raw if budget.unlimited else min(raw, budget.capacity)

    return BlockMemPlan(order=order, roots=roots, charges=charges,
                        demand=demand, peaks=peaks, budgets=budgets)


# ----------------------------------------------------------------- diagnostics

def plan_diagnostics(plan: BlockMemPlan,
                     config: MemphisConfig) -> list[Diagnostic]:
    """Check a plan against its budgets (the MEM rule family)."""
    out: list[Diagnostic] = []
    budgets = plan.budgets

    # MEM001: a single instruction's working set exceeds its execution
    # region's total capacity — no schedule can make that feasible.
    gpu_cap = budgets[REGION_GPU].capacity
    sp_cap = budgets[REGION_SPARK_STORAGE].capacity
    for pos, hop in enumerate(plan.order):
        if hop.kind != KIND_OP or hop.fused:
            continue
        if hop.placement == BACKEND_GPU:
            working = gpu_working_set(hop, config.gpu.alignment)
            if working > gpu_cap:
                out.append(diag(
                    "MEM001", Severity.ERROR,
                    f"GPU working set of @{pos} is {working} B, above the "
                    f"device capacity of {gpu_cap} B",
                    hop,
                    hint="no schedule can fit this instruction; "
                         "shrink the operands or disable the GPU backend",
                ))
        elif hop.placement == BACKEND_SP:
            working = hop.output_bytes + sum(
                inp.output_bytes for inp in hop.inputs
                if inp.kind != KIND_LITERAL
            )
            if working > sp_cap:
                out.append(diag(
                    "MEM001", Severity.ERROR,
                    f"Spark working set of @{pos} is {working} B, above "
                    f"the aggregate storage memory of {sp_cap} B",
                    hop,
                    hint="raise spark.num_executors/executor_memory or "
                         "repartition the pipeline",
                ))

    # MEM002: execution-region liveness peak over capacity.  The GPU is
    # the only execution region this runtime can overflow mid-block
    # (driver ops run on unpooled host memory; the block manager spills
    # partitions to executor disk transparently).
    gpu_demand = plan.demand[REGION_GPU]
    if gpu_demand > gpu_cap:
        out.append(diag(
            "MEM002", Severity.ERROR,
            f"GPU resident peak of {gpu_demand} B exceeds the device "
            f"capacity of {gpu_cap} B: the block is predicted to run out "
            "of device memory",
            None,
            hint="shrink the block or raise gpu.device_memory",
        ))

    # MEM003: sticky cache-tier demand over capacity — the runtime
    # stays correct (eviction/spill) but churns; flag it for tuning.
    for name, label, hint in (
        (REGION_CP, "driver lineage cache",
         "raise cache.driver_cache_bytes or lower the reuse mode"),
        (REGION_SPARK_CACHE, "Spark reuse cache",
         "raise cache.spark_cache_fraction or executor memory"),
        (REGION_SPARK_STORAGE, "Spark storage memory",
         "partitions will spill to executor disk; raise executor memory"),
    ):
        budget = budgets[name]
        if budget.unlimited:
            continue
        if plan.demand[name] > budget.capacity:
            extra = ""
            if name == REGION_CP and config.cache.spill_to_disk:
                disk = budgets[REGION_DISK]
                volume = min(plan.demand[name] - budget.capacity,
                             disk.capacity)
                extra = (f"; up to {volume} B will spill to the disk tier")
            out.append(diag(
                "MEM003", Severity.WARNING,
                f"{label} demand of {plan.demand[name]} B exceeds its "
                f"capacity of {budget.capacity} B: eviction churn "
                f"predicted{extra}",
                None, hint=hint,
            ))

    # MEM005: planned CP spill volume over the DISK budget.
    disk_budget = budgets[REGION_DISK]
    if (config.cache.spill_to_disk
            and plan.demand[REGION_DISK] > disk_budget.capacity):
        out.append(diag(
            "MEM005", Severity.WARNING,
            f"worst-case CP spill volume of {plan.demand[REGION_DISK]} B "
            f"exceeds the disk tier budget of {disk_budget.capacity} B: "
            "the spill tier will drop the overflow",
            None, hint="raise cache.disk_cache_bytes",
        ))

    # MEM004: watermark pressure — fires only in the band between the
    # watermark and the capacity, so it never overlaps MEM002/MEM003
    # (which require demand strictly above capacity).
    for name in PLAN_REGIONS:
        budget = budgets[name]
        if budget.unlimited or budget.capacity <= 0:
            continue
        demand = plan.demand[name]
        if (demand <= budget.capacity
                and demand >= PRESSURE_WATERMARK * budget.capacity):
            out.append(diag(
                "MEM004", Severity.INFO,
                f"{name} predicted peak of {demand} B is within "
                f"{100 - int(PRESSURE_WATERMARK * 100)}% of its "
                f"{budget.capacity} B capacity",
                None,
            ))
    return out


def memory_plan(ctx: AnalysisContext) -> list[Diagnostic]:
    """Static memory planner: peak footprint vs region budgets (MEM001+).

    Checks single-instruction working sets and block liveness peaks
    against the configured capacities (see module docstring for the
    rule catalog and ``docs/ANALYSIS.md`` for examples).  Uses the plan
    the session already made for this block when there is one, so a
    verified block is planned once.
    """
    assert ctx.order is not None
    plan = ctx.plan
    if plan is None:
        plan = plan_block(ctx.roots, ctx.order, ctx.config)
    return plan_diagnostics(plan, ctx.config)


# ------------------------------------------------------- session-level planner

class SessionMemPlanner:
    """Accumulates one session's predicted peaks across its blocks.

    Cache tiers and the GPU pool are sticky across blocks (see
    ``PLAN_REGIONS``), so the session-level predicted peak of a
    region is the capacity-clamped *cumulative* demand of every block
    planned so far.  ``observe`` records the runtime's actual
    ``MemoryRegion.peak_used`` watermarks after each block, making
    predicted-vs-observed comparable in one place
    (``Session.explain(level="runtime")``, harness ``--verify-ir`` and
    the upper-bound tests).

    The budgets depend only on the config: derived once, every
    :meth:`plan` checks against them.
    """

    def __init__(self, config: MemphisConfig) -> None:
        self.config = config
        self.budgets = region_capacities(config)
        self.blocks = 0
        #: raw cumulative demand per region across planned blocks.
        self.cumulative: dict[str, int] = {n: 0 for n in PLAN_REGIONS}
        #: capacity-clamped session-level predicted peak per region.
        self.predicted: dict[str, int] = {n: 0 for n in PLAN_REGIONS}
        #: max observed ``peak_used`` per region across ``observe`` calls.
        self.observed: dict[str, int] = {n: 0 for n in PLAN_REGIONS}

    def plan(self, roots: list[Hop], order: list[Hop]) -> BlockMemPlan:
        """Plan one block against the session's budgets and fold its
        demand into the session totals."""
        plan = plan_block(roots, order, self.config, self.budgets)
        self.absorb(plan)
        return plan

    def absorb(self, plan: BlockMemPlan) -> None:
        self.blocks += 1
        for name in PLAN_REGIONS:
            self.cumulative[name] += plan.demand[name]
            budget = self.budgets[name]
            raw = self.cumulative[name]
            self.predicted[name] = (
                raw if budget.unlimited else min(raw, budget.capacity)
            )

    def observe(self, arbiter: "MemoryArbiter") -> None:
        """Record the runtime's per-region peak watermarks."""
        observed = self.observed
        for region in arbiter.regions():
            name = region.name
            if name in observed and region.peak_used > observed[name]:
                observed[name] = int(region.peak_used)

    def check_bounds(self) -> list[tuple[str, int, int, bool]]:
        """``(region, predicted, observed, ok)`` rows; ok = upper bound."""
        return [
            (name, self.predicted[name], self.observed[name],
             self.predicted[name] >= self.observed[name])
            for name in PLAN_REGIONS
        ]


# -------------------------------------------------------------------- rendering

def _fmt_bytes(nbytes: int) -> str:
    size = float(nbytes)
    for unit in ("B", "KB", "MB", "GB"):
        if size < 1024.0 or unit == "GB":
            return f"{size:.1f} {unit}" if unit != "B" \
                else f"{int(size)} B"
        size /= 1024.0
    return f"{int(nbytes)} B"


def format_footprint_table(plan: BlockMemPlan) -> str:
    """Per-hop / per-region footprint table of one block's plan."""
    by_hop = plan.charges_by_hop()
    regions = [n for n in PLAN_REGIONS if plan.demand[n] > 0]
    if not regions or not by_hop:
        return "memory plan: no region charges in this block"
    header = f"  {'hop':>5}  {'opcode':<12}" + "".join(
        f"{name:>12}" for name in regions)
    lines = ["memory plan (per-hop charges, worst case):", header]
    for hop in plan.order:
        per = by_hop.get(hop.id)
        if not per:
            continue
        cells = "".join(
            f"{_fmt_bytes(per[name]):>12}" if name in per else f"{'-':>12}"
            for name in regions
        )
        lines.append(f"  #{hop.id:>4}  {hop.opcode:<12}{cells}")
    total = "".join(f"{_fmt_bytes(plan.demand[n]):>12}" for n in regions)
    peak = "".join(f"{_fmt_bytes(plan.peaks[n]):>12}" for n in regions)
    cap = "".join(
        ("unlimited".rjust(12) if plan.budgets[n].unlimited
         else f"{_fmt_bytes(plan.budgets[n].capacity):>12}")
        for n in regions
    )
    lines.append(f"  {'':>5}  {'demand':<12}{total}")
    lines.append(f"  {'':>5}  {'peak':<12}{peak}")
    lines.append(f"  {'':>5}  {'capacity':<12}{cap}")
    return "\n".join(lines)


def format_region_peaks(predicted: Optional[dict[str, int]],
                        observed: Optional[dict[str, int]] = None,
                        budgets: Optional[dict[str, RegionBudget]] = None
                        ) -> str:
    """Predicted (and optionally observed) peak table per region."""
    lines = ["region peaks:"]
    header = f"  {'region':<10}"
    if predicted is not None:
        header += f"{'predicted':>14}"
    if observed is not None:
        header += f"{'observed':>14}"
        if predicted is not None:
            header += f"{'bound':>8}"
    if budgets is not None:
        header += f"{'capacity':>14}"
    lines.append(header)
    for name in PLAN_REGIONS:
        row = f"  {name:<10}"
        if predicted is not None:
            row += f"{_fmt_bytes(predicted.get(name, 0)):>14}"
        if observed is not None:
            obs = observed.get(name, 0)
            row += f"{_fmt_bytes(obs):>14}"
            if predicted is not None:
                ok = predicted.get(name, 0) >= obs
                row += f"{'ok' if ok else 'LOW':>8}"
        if budgets is not None:
            budget = budgets.get(name) if budgets else None
            if budget is not None:
                row += ("unlimited".rjust(14) if budget.unlimited
                        else f"{_fmt_bytes(budget.capacity):>14}")
        lines.append(row)
    return "\n".join(lines)


def explain_memory(session: "Session", root_hops: Optional[list[Hop]],
                   order: Optional[list[Hop]]) -> str:
    """Static footprint table + observed region watermarks.

    The ``runtime``/``full`` levels of ``Session.explain`` append (a)
    the static memory plan of the block being explained (per-hop /
    per-region charges; skipped when rendering captured plans, where
    ``root_hops``/``order`` are ``None``) and (b) the session's observed
    ``MemoryRegion.peak_used`` watermarks, so predicted vs observed
    peaks are comparable in one place.
    """
    sections: list[str] = []
    if root_hops is not None and order is not None:
        sections.append(format_footprint_table(
            plan_block(root_hops, order, session.config)))
    observed = {
        snap["region"]: int(snap["peak_used"])
        for snap in session.arbiter.snapshot()
    }
    planner = session.memplanner
    sections.append(
        "memory regions (observed peak watermarks"
        + (" vs session prediction" if planner is not None else "")
        + "):\n"
        + format_region_peaks(
            planner.predicted if planner is not None else None,
            observed,
            planner.budgets if planner is not None else None)
    )
    return "\n\n".join(sections)
