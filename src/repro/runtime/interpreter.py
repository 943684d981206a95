"""Instruction interpreter with lineage tracing and multi-backend reuse.

Executes a linearized hop stream following the paper's main loop
(Fig. 4)::

    for inst in instructions:
        TRACE(inst)
        if not REUSE(inst):
            execute(inst)
            PUT(inst)

and handles all inter-backend data exchange (collect, broadcast,
parallelize, H2D/D2H), asynchronous prefetch futures, checkpoint
persisting, and GPU pointer lifetimes.

Stage map (MEMPHIS paper section -> code).  The loop is written once,
in :meth:`Interpreter.run`, over the block's *lowered* program
(:func:`repro.compiler.plan.lower`, compiled once per block shape): per
op, the input-slot positions, the lineage attribute tuple, the PUT cost,
the CP roofline's FLOPs and bytes, the operand slots a Spark
``tsmm``/``cpmm`` reads (the input of its left transpose), the §5
rewrite flags and the Spark physical operator.  The stages it
sequences are:

* **TRACE** (§3.2, fine-grained lineage): inline in the loop — interned
  lineage-item construction (inputs read from the slot list by
  position) plus the per-instruction tracing overhead charge the paper
  measures in Fig. 2(c).  A trace-only instruction (a transpose such a
  ``tsmm``/``cpmm`` reads through) stops here.
* **REUSE** (§4.1, probe + multi-backend hit application): the probe
  is inline (``cache.probe`` after the probe-overhead charge); a hit is
  bound by :meth:`Interpreter._apply_reuse`.
* **EXECUTE** (Table 2 operator set): ``_exec_cpu`` / ``_exec_gpu`` /
  ``_exec_spark`` (the lowered operator, from :data:`SPARK_OPERATORS`)
  plus the exchange helpers (``_to_cp`` et al.) implementing the
  paper's collect/broadcast/H2D/D2H edges.
* **PUT** (§4.2, admission with delayed caching):
  :meth:`Interpreter._put`, at the instruction's static cost.
* Async rewrites (§5.1): ``_issue_prefetch`` / ``_issue_broadcast``;
  checkpoints (§5.2): ``_persist_checkpoint`` — where the instruction's
  ``flags`` say so.

Tracer spans (with the gauge samples that ride on them) and fault
draws are hooks of that same loop, each behind a boolean read once per
run; which modes probe and put is
:class:`~repro.common.config.ReuseMode`'s own ``probes`` / ``puts``.
``bench/`` measures the loop's real wall-clock cost
(docs/PERFORMANCE.md).
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.backends.gpu.backend import GpuData
from repro.backends.spark.backend import DistributedMatrix
from repro.backends.spark.broadcast import Broadcast
from repro.common.config import ReuseMode
from repro.common.errors import PlacementError
from repro.common.simclock import HOST, SimFuture
from repro.common.stats import (
    CHECKPOINTS_PLACED,
    FAULT_LINEAGE_RECOMPUTES,
    INSTRUCTIONS_SKIPPED,
    LINEAGE_TRACED,
    PREFETCH_ISSUED,
    BROADCAST_ISSUED,
    SPARK_ACTION_REUSE,
)
from repro.faults.plan import KIND_CACHE_LOST
from repro.compiler.ir import (BROADCAST, CHECKPOINT, KIND_LITERAL,
                               PREFETCH, Hop, index_bounds)
from repro.core.entry import (
    BACKEND_CP,
    BACKEND_GPU,
    BACKEND_SP,
    CacheEntry,
)
from repro.lineage.item import LineageItem
from repro.obs.events import (
    EV_BROADCAST,
    EV_INSTR,
    EV_PREFETCH,
    EV_PREFETCH_DONE,
    LANE_CP,
)
from repro.obs.metrics import SAMPLE_EVERY, sample as sample_gauges
from repro.runtime.values import MatrixValue, ScalarValue, Value

if TYPE_CHECKING:  # pragma: no cover
    import weakref

    from repro.backends.cpu.backend import CpuBackend
    from repro.common.config import MemphisConfig
    from repro.common.simclock import SimClock
    from repro.common.stats import Stats
    from repro.core.session import Session
    from repro.core.substrate import Substrate
    from repro.core.tiers import BackendTiers

__all__ = ["Interpreter", "Slot"]


class Slot:
    """Runtime binding of one hop: lineage + multi-backend payloads."""

    __slots__ = ("lineage", "payloads", "future", "broadcast")

    def __init__(self, lineage: LineageItem) -> None:
        self.lineage = lineage
        self.payloads: dict[str, object] = {}
        #: pending asynchronous fetch (prefetch rewrite).
        self.future: Optional[SimFuture] = None
        #: broadcast variable created for this value (if any).
        self.broadcast: Optional[Broadcast] = None


class Interpreter:
    """Executes compiled hop streams inside a session.

    It holds the session's collaborators, not the session: the CPU
    backend, the lazily built Spark/GPU tiers, the substrate (cache and
    interner), the clock, stats, tracer and fault injector.  Only fault
    recovery reaches back, through ``session``, a weak reference to the
    session (for ``recompute_from_lineage``) — so no reference cycle
    runs through a session.
    """

    def __init__(self, config: "MemphisConfig", *, stats: "Stats",
                 clock: "SimClock", substrate: "Substrate",
                 tiers: "BackendTiers", cpu: "CpuBackend", tracer, faults,
                 session: "weakref.ref[Session]") -> None:
        self.config = config
        self.stats = stats
        self.clock = clock
        self.substrate = substrate
        self.cache = substrate.cache
        #: the substrate's hash-consing table (shared across sessions on
        #: a shared substrate, so identical traces intern to one object).
        self.interner = substrate.interner
        self.tiers = tiers
        self.cpu = cpu
        self.tracer = tracer
        self.faults = faults
        self._session = session
        #: delayed-caching threshold of PUTs (§5.2); ``Session.block``
        #: tunes it per block.
        self.delay_factor = config.cache.delay_factor
        #: one acquired-pointer list per active run: recovery can re-enter
        #: :meth:`run` (recompute-from-lineage) while an outer run is live,
        #: and each nesting level must release exactly its own references.
        self._acquired_stack: list[list[GpuData]] = []

    # ------------------------------------------------------------------ top level

    def run(self, order: list[Hop], program: tuple) -> list[Slot]:
        """Execute a linearized block; returns one slot per ``order`` entry.

        This is the one definition of the paper's main loop (Fig. 4):
        per instruction TRACE, REUSE probe and, on a miss, EXECUTE, the
        compiler-placed checkpoint / prefetch / broadcast, and PUT.
        ``program`` is the block's lowered form
        (:func:`repro.compiler.plan.lower`), aligned with ``order``: an
        op's input slots are read by position, its lineage attributes
        and static costs come ready-made.  Everything fixed for a run —
        which observability layers are live, what the
        :class:`ReuseMode` probes and puts, the config overheads, the
        stage callables — is read into locals before the loop, so a
        layer that is off costs one test of a local boolean per
        instruction.  The stage callables are looked up on ``self``
        here, per run, so instance-level wrappers installed after
        construction are honoured.

        GPU pointers acquired during the run (allocations, uploads, and
        cache-hit reuses) each hold one reference; the session binds
        surviving handles (adding their own references) and then calls
        :meth:`release_acquired` — also when the run raised — to drop
        the execution references, moving unreferenced pointers to the
        Free list (Fig. 8(b)).
        """
        slots: list[Slot] = []
        add = slots.append
        acquired: list[GpuData] = []
        self._acquired_stack.append(acquired)

        config = self.config
        tiers = self.tiers
        # the two per-instruction overhead charges add to the host
        # timeline in place: ``SimClock.advance``'s float addition, in
        # the same order, with its sign check made once per run
        timelines = self.clock.timelines
        counts = self.stats.counts
        tracer = self.tracer
        faults = self.faults
        tracing = tracer.enabled
        fault_draws = faults.enabled
        until_sample = SAMPLE_EVERY

        mode = config.reuse_mode
        trace_on = mode is not ReuseMode.NONE
        probe_on = mode.probes
        put_on = mode.puts
        local_only = mode is ReuseMode.LOCAL_ONLY
        trace_overhead = config.cpu.trace_overhead_s
        probe_overhead = config.cpu.probe_overhead_s
        if trace_overhead < 0 or probe_overhead < 0:
            raise ValueError("cannot advance clock by negative time")

        intern = self.interner.intern
        literal = self.interner.literal
        cache_probe = self.cache.probe
        exec_cpu = self._exec_cpu
        exec_spark = self._exec_spark
        exec_gpu = self._exec_gpu
        data_slot = self._data_slot
        apply_reuse = self._apply_reuse
        put = self._put

        for hop, instr in zip(order, program):
            if instr is None:
                if hop.kind == KIND_LITERAL:
                    slot = Slot(literal(hop.value))
                    slot.payloads[BACKEND_CP] = ScalarValue(hop.value)
                else:
                    slot = data_slot(hop)
                add(slot)
                continue
            # TRACE (§3.2): items are interned, so a re-traced
            # instruction gets the canonical object and probes compare
            # by identity; with lineage active, the per-instruction
            # overhead of Fig. 2(c) is charged
            (inputs, attrs, cost, cp_flops, cp_nbytes, operands, flags,
             operator) = instr
            in_slots = [slots[i] for i in inputs]
            item = intern(hop.opcode, attrs,
                          tuple([s.lineage for s in in_slots]))
            if trace_on:
                timelines[HOST] += trace_overhead
                counts[LINEAGE_TRACED] += 1
            slot = Slot(item)
            add(slot)
            if cost is None:
                # trace-only: a Spark tsmm/cpmm reads this transpose's
                # input instead
                continue
            # fault-injection draw point: each op instruction may lose
            # cached intermediates, exercising recompute-from-lineage
            # downstream
            if fault_draws:
                faults.lost_cache_entries(tiers)
            # the instruction span covers REUSE + EXECUTE + PUT on the
            # driver lane, so every cache/backend event emitted underneath
            # carries this instruction's label (opcode#hop) for
            # attribution.  Entered by hand, not with ``with``: an
            # untraced instruction must pay one boolean test, not a null
            # context manager's calls
            span = None
            if tracing:
                # gauge sampling rides on the tracer: reads ledgers and
                # counters every SAMPLE_EVERY traced instructions, never
                # advances the sim clock
                until_sample -= 1
                if not until_sample:
                    until_sample = SAMPLE_EVERY
                    sample_gauges(self)
                span = tracer.span(
                    EV_INSTR, LANE_CP, opcode=hop.opcode,
                    hop=hop.id, backend=hop.placement or BACKEND_CP,
                    lineage=item.id)
                span.__enter__()
            try:
                # REUSE probe (LIMA traces and reuses only local CPU
                # instructions in LOCAL_ONLY mode)
                entry = None
                placement = hop.placement
                if probe_on and (
                        not local_only or placement == BACKEND_CP):
                    timelines[HOST] += probe_overhead
                    entry = cache_probe(item)
                if entry is not None:
                    apply_reuse(hop, slot, entry)
                    continue
                # EXECUTE
                backend = placement or BACKEND_CP
                if backend == BACKEND_CP:
                    exec_cpu(hop, slot, in_slots, cp_flops, cp_nbytes)
                elif backend == BACKEND_SP:
                    exec_spark(hop, slot, in_slots if operands is None
                               else [slots[i] for i in operands], operator)
                else:
                    exec_gpu(hop, slot, in_slots, acquired, cp_flops)
                payloads = slot.payloads
                # compiler-placed RDD checkpoint (§5.2)
                if flags & CHECKPOINT and BACKEND_SP in payloads:
                    self._persist_checkpoint(payloads[BACKEND_SP])
                # asynchronous prefetch / broadcast (§5.1)
                if flags & PREFETCH:
                    self._issue_prefetch(hop, slot)
                if flags & BROADCAST and BACKEND_CP in payloads:
                    self._issue_broadcast(slot)
                # PUT
                if put_on:
                    put(hop, slot, cost)
            finally:
                if span is not None:
                    span.__exit__(None, None, None)
        return slots

    def release_acquired(self) -> None:
        """Drop the execution references on all GPU pointers of this run."""
        if not self._acquired_stack:
            return
        for data in self._acquired_stack.pop():
            if not data.ptr.freed:
                self.tiers.gpu.memory.release(data.ptr)

    # ----------------------------------------------------------------- trace / reuse

    def _apply_reuse(self, hop: Hop, slot: Slot, entry: CacheEntry) -> None:
        """Bind a cache hit: skip the instruction entirely."""
        slot.payloads = dict(entry.payloads)
        gpu_payload = slot.payloads.get(BACKEND_GPU)
        if gpu_payload is not None:
            data: GpuData = gpu_payload
            if data.ptr.freed:
                # pointer was recycled between invalidation and probe
                slot.payloads.pop(BACKEND_GPU, None)
            else:
                self.tiers.gpu.memory.reuse_from_free(data.ptr)
                self._acquired_stack[-1].append(data)
        if BACKEND_SP in slot.payloads:
            self.tiers.spark_mgr.reuse_rdd(entry)
        if hop.placement == BACKEND_SP and BACKEND_CP in slot.payloads:
            # reused a previously collected action result: consumers read
            # the driver-side copy instead of triggering a Spark job
            self.stats.inc(SPARK_ACTION_REUSE)
        self.stats.counts[INSTRUCTIONS_SKIPPED] += 1

    def _put(self, hop: Hop, slot: Slot, cost: float) -> None:
        """PUT stage (§4.2): offer every backend payload to the cache.

        ``cost`` is the lowered instruction's ``hop.flops``.  Admission
        is the cache's call (delayed caching / compensation weights);
        LOCAL_ONLY mode (the LIMA baseline) stores only driver-local
        values and skips the multi-backend entries.
        """
        payloads = slot.payloads
        item = slot.lineage
        cp_value: Optional[Value] = payloads.get(BACKEND_CP)
        if self.config.reuse_mode is ReuseMode.LOCAL_ONLY:
            if hop.placement == BACKEND_CP and cp_value is not None:
                self.cache.put(item, cp_value, BACKEND_CP, cp_value.nbytes,
                               cost, delay_factor=1)
            return
        delay = self.delay_factor
        if cp_value is not None:
            self.cache.put(item, cp_value, BACKEND_CP, cp_value.nbytes, cost,
                           delay_factor=delay)
        dm: Optional[DistributedMatrix] = payloads.get(BACKEND_SP)
        if dm is not None:
            entry = self.cache.put(item, dm, BACKEND_SP, dm.nbytes, cost,
                                   delay_factor=delay)
            if entry is not None:
                self.tiers.spark_mgr.cache_rdd(entry, dm)
        data: Optional[GpuData] = payloads.get(BACKEND_GPU)
        if data is not None:
            self.cache.put(item, data, BACKEND_GPU, data.nbytes, cost,
                           delay_factor=delay)

    # ------------------------------------------------------------------- data leaves

    def _data_slot(self, hop: Hop) -> Slot:
        """Bind a data leaf: reuse the handle's lineage + payloads.

        Keeping the lineage item stable across program blocks is what
        makes cross-block reuse work (§3.2: leaves anchor DAG
        equality); payload dictionaries are shared so later blocks see
        exchanges (collect, H2D) performed by earlier ones.
        """
        if hop.bundle is not None:
            lineage, payloads = hop.bundle
        else:
            handle = hop.handle
            if handle is None:
                raise PlacementError(f"data hop {hop} has no handle")
            if handle.lineage is None:
                handle.lineage = self.interner.dataset(
                    handle.name or f"data_{hop.id}")
            lineage, payloads = handle.lineage, handle.payloads
        slot = Slot(lineage)
        slot.payloads = dict(payloads)
        # drop stale GPU payloads whose pointer was recycled; the host
        # shadow of the value recovers the data when no other copy exists
        gpu_payload = slot.payloads.get(BACKEND_GPU)
        if gpu_payload is not None and gpu_payload.ptr.freed:
            slot.payloads.pop(BACKEND_GPU)
            payloads.pop(BACKEND_GPU, None)
            if BACKEND_CP not in slot.payloads:
                slot.payloads[BACKEND_CP] = gpu_payload.value
                payloads[BACKEND_CP] = gpu_payload.value
        return slot

    # --------------------------------------------------------------------- exchange

    def _to_cp(self, slot: Slot, jobs_entry: bool = True) -> Value:
        """Materialize a slot on the driver (collect / D2H / future wait)."""
        if BACKEND_CP in slot.payloads:
            return slot.payloads[BACKEND_CP]
        if slot.future is not None:
            label = slot.future.label
            raw = slot.future.wait()
            if self.tracer.enabled:
                self.tracer.instant(EV_PREFETCH_DONE, LANE_CP, label=label)
            value = raw if isinstance(raw, (MatrixValue, ScalarValue)) \
                else MatrixValue(raw)
            slot.payloads[BACKEND_CP] = value
            slot.future = None
            self._cache_exchange(slot, value)
            return value
        if BACKEND_SP in slot.payloads:
            dm: DistributedMatrix = slot.payloads[BACKEND_SP]
            value = self.tiers.spark.collect(dm)
            slot.payloads[BACKEND_CP] = value
            self._cache_exchange(slot, value, count_job=jobs_entry)
            return value
        if BACKEND_GPU in slot.payloads:
            data: GpuData = slot.payloads[BACKEND_GPU]
            value = self.tiers.gpu.to_host(data)
            slot.payloads[BACKEND_CP] = value
            self._cache_exchange(slot, value)
            return value
        if self.faults.enabled and slot.lineage is not None:
            # every payload copy was lost to injected faults: rebuild the
            # value by replaying its lineage (the paper's core recovery
            # argument — lineage makes intermediates cheap to reconstruct)
            value = self._session().recompute_from_lineage(slot.lineage)
            slot.payloads[BACKEND_CP] = value
            self.stats.inc(FAULT_LINEAGE_RECOMPUTES)
            self.faults.recovered(KIND_CACHE_LOST, LANE_CP,
                                  key=slot.lineage.id,
                                  opcode=slot.lineage.opcode)
            return value
        raise PlacementError("slot has no payload to materialize")

    def _cache_exchange(self, slot: Slot, value: Value,
                        count_job: bool = False) -> None:
        """Cache a collected/fetched CP copy under the same lineage key.

        This is what makes Spark *action reuse* work: the next time the
        same lineage is probed, the driver-side copy short-circuits the
        job (paper Fig. 6, top entry).  LIMA has no Spark awareness, so
        collected results of distributed operations are not cached there.
        """
        mode = self.config.reuse_mode
        if not mode.puts or mode is ReuseMode.LOCAL_ONLY:
            return
        entry = self.cache.get_entry(slot.lineage)
        if entry is not None and entry.is_cached:
            entry.put_payload(BACKEND_CP, value, value.nbytes,
                              entry.compute_cost)
            if count_job:
                entry.jobs += 1
            self.cache.touch(entry)
            return
        self.cache.put(slot.lineage, value, BACKEND_CP, value.nbytes,
                       1.0, delay_factor=1)

    def _to_dm(self, slot: Slot, name: str = "in") -> DistributedMatrix:
        """Materialize a slot on the cluster (parallelize if CP-only)."""
        if BACKEND_SP in slot.payloads:
            return slot.payloads[BACKEND_SP]
        value = self._to_cp(slot)
        dm = self.tiers.spark.distribute(value, name)
        slot.payloads[BACKEND_SP] = dm
        return dm

    def _to_bc(self, slot: Slot) -> Broadcast:
        """Broadcast a slot's value to all executors (§5.1 operand path)."""
        if slot.broadcast is not None and not slot.broadcast.destroyed:
            return slot.broadcast
        value = self._to_cp(slot)
        # serialization/partitioning cost on the driver
        self.clock.advance(
            value.nbytes / self.config.cpu.mem_bandwidth_bytes_per_s, HOST
        )
        slot.broadcast = self.tiers.spark.broadcast(
            value if isinstance(value, MatrixValue)
            else MatrixValue(np.full((1, 1), value.as_float()))
        )
        return slot.broadcast

    def _to_gpu(self, slot: Slot, gpu_created: list[GpuData]) -> GpuData:
        """Materialize a slot on the device (H2D through the pool, §4.3)."""
        payload = slot.payloads.get(BACKEND_GPU)
        if payload is not None and not payload.ptr.freed:
            return payload
        value = self._to_cp(slot)
        if isinstance(value, ScalarValue):
            value = MatrixValue(np.full((1, 1), value.as_float()))
        data = self.tiers.gpu.to_device(value)
        slot.payloads[BACKEND_GPU] = data
        gpu_created.append(data)
        return data

    # -------------------------------------------------------------------- CPU / GPU

    def _exec_cpu(self, hop: Hop, slot: Slot, in_slots: list[Slot],
                  flops: float, nbytes: int) -> None:
        """EXECUTE on the driver (Table 2, CP operators).

        Inputs are materialized driver-side first (collect / D2H /
        future wait), so a CP instruction doubles as the paper's
        synchronization point for asynchronous Spark/GPU producers.
        ``flops`` and ``nbytes`` are the lowered instruction's roofline
        inputs.
        """
        values = []
        append = values.append
        for s in in_slots:
            # inline _to_cp's already-local fast path (the overwhelmingly
            # common case for CP-placed chains)
            v = s.payloads.get(BACKEND_CP)
            if v is not None:
                append(v)
                continue
            append(self._to_cp(s))
        out = self.cpu.execute(hop.opcode, values, hop.attrs, flops, nbytes)
        slot.payloads[BACKEND_CP] = out

    def _exec_gpu(self, hop: Hop, slot: Slot, in_slots: list[Slot],
                  gpu_created: list[GpuData], flops: float) -> None:
        """EXECUTE on the device (§4.3): H2D uploads + kernel launch.

        Scalars stay host-side (kernel launch parameters); matrix
        inputs are uploaded through the memory manager, and every
        acquired pointer is recorded for end-of-run release (Fig. 8(b)
        reference workflow).  ``flops`` is the lowered instruction's.
        """
        gpu_inputs: list[object] = []
        for s in in_slots:
            cp = s.payloads.get(BACKEND_CP)
            if isinstance(cp, ScalarValue):
                gpu_inputs.append(cp)
            else:
                gpu_inputs.append(self._to_gpu(s, gpu_created))
        out = self.tiers.gpu.execute(
            hop.opcode, gpu_inputs, hop.attrs,
            lineage_height=slot.lineage.height, flops=flops,
        )
        if isinstance(out, GpuData):
            slot.payloads[BACKEND_GPU] = out
            gpu_created.append(out)
        else:
            slot.payloads[BACKEND_CP] = out

    # ------------------------------------------------------------------------ Spark

    def _exec_spark(self, hop: Hop, slot: Slot, in_slots: list[Slot],
                    operator: Optional[str]) -> None:
        """EXECUTE on the cluster (§4.2/§5): the lowered physical operator
        (:data:`SPARK_OPERATORS`, cells computed by the CP kernels); an
        action's value lands on the driver, an ``async_action``'s future
        in ``slot.future``."""
        if operator is None:  # placement forced an op with none (PLC001)
            raise PlacementError(f"no Spark operator for {hop.opcode!r}")
        out = SPARK_OPERATORS[operator](self, self.tiers.spark, hop, *in_slots)
        if isinstance(out, DistributedMatrix):
            slot.payloads[BACKEND_SP] = out
        elif isinstance(out, SimFuture):
            self._await(slot, out)
        else:
            slot.payloads[BACKEND_CP] = out

    # The physical operators of :data:`SPARK_OPERATORS`: ``(Spark backend,
    # hop, *input slots) -> payload``.  A ``tsmm``/``cpmm`` reads its left
    # transpose's input and its right operand; the side that is not
    # distributed (a driver scalar, a broadcast) is materialized first.

    def _sp_tsmm(self, sb, hop: Hop, x: Slot, _: Slot):
        return sb.tsmm(self._to_dm(x))

    def _sp_cpmm(self, sb, hop: Hop, x: Slot, y: Slot):
        return sb.cpmm(self._to_dm(x), self._to_dm(y))

    def _sp_mapmm(self, sb, hop: Hop, x: Slot, y: Slot):
        bc = self._to_bc(y)
        return sb.mapmm(self._to_dm(x), bc, hop.shape[1])

    def _sp_bcmm(self, sb, hop: Hop, x: Slot, y: Slot):
        return sb.bcmm_left(self._to_bc(x), hop.shape[0], self._to_dm(y))

    def _sp_zip(self, sb, hop: Hop, x: Slot, y: Slot):
        # equal row counts (matrix-matrix, matrix-column-vector)
        return sb.cellwise(hop.opcode, self._to_dm(x), self._to_dm(y))

    def _sp_scalar_left(self, sb, hop: Hop, x: Slot, y: Slot):
        return sb.cellwise(hop.opcode, self._scalar_of(x), self._to_dm(y))

    def _sp_scalar_right(self, sb, hop: Hop, x: Slot, y: Slot):
        value = self._scalar_of(y)
        return sb.cellwise(hop.opcode, self._to_dm(x), value)

    def _sp_broadcast_left(self, sb, hop: Hop, x: Slot, y: Slot):
        return sb.cellwise(hop.opcode, self._to_bc(x), self._to_dm(y))

    def _sp_broadcast_right(self, sb, hop: Hop, x: Slot, y: Slot):
        bc = self._to_bc(y)
        return sb.cellwise(hop.opcode, self._to_dm(x), bc)

    def _sp_blockwise(self, sb, hop: Hop, x: Slot):
        return sb.blockwise(hop.opcode, self._to_dm(x), hop.shape[1],
                            hop.attrs)

    _sp_row_aggregate = _sp_blockwise  # a row block holds whole rows

    def _sp_slice_cols(self, sb, hop: Hop, x: Slot):
        # block-local; a row range re-blocks through a shuffle
        _, _, cl, cu = index_bounds(hop.attrs, hop.inputs[0].shape)
        return sb.blockwise("rightIndex", self._to_dm(x), cu - cl + 1,
                            {"cl": cl, "cu": cu})

    def _sp_slice_rows(self, sb, hop: Hop, x: Slot):
        rl, ru, _, _ = index_bounds(hop.attrs, hop.inputs[0].shape)
        return sb.slice_rows(self._to_dm(x), rl - 1, ru)

    def _sp_slice_both(self, sb, hop: Hop, x: Slot):
        rl, ru, _, _ = index_bounds(hop.attrs, hop.inputs[0].shape)
        return sb.slice_rows(self._sp_slice_cols(sb, hop, x), rl - 1, ru)

    def _sp_slice_none(self, sb, hop: Hop, x: Slot):
        return self._to_dm(x)

    def _sp_transpose(self, sb, hop: Hop, x: Slot):
        return sb.transpose(self._to_dm(x))

    def _sp_rbind(self, sb, hop: Hop, x: Slot, y: Slot):
        return sb.rbind(self._to_dm(x), self._to_dm(y))

    def _sp_action(self, sb, hop: Hop, x: Slot):
        return sb.aggregate(hop.opcode, self._to_dm(x))

    def _sp_async_action(self, sb, hop: Hop, x: Slot):
        # §5.1: "flags all other Spark actions for asynchronous execution"
        return sb.aggregate(hop.opcode, self._to_dm(x), asynchronous=True)

    def _scalar_of(self, slot: Slot) -> float:
        """Driver-side python float of a 1x1 value (scalar operands)."""
        value = self._to_cp(slot)
        if isinstance(value, ScalarValue):
            return value.as_float()
        return float(value.data.reshape(-1)[0])

    # --------------------------------------------------------------------- async ops

    def _persist_checkpoint(self, dm: DistributedMatrix) -> None:
        """Persist a compiler-placed RDD checkpoint (§5.2), once."""
        if not dm.rdd.is_persisted:
            dm.rdd.persist(self.tiers.spark_mgr.storage_level)
            self.stats.inc(CHECKPOINTS_PLACED)

    def _issue_prefetch(self, hop: Hop, slot: Slot) -> None:
        """Trigger the remote job now and return a future (§5.1)."""
        if BACKEND_CP in slot.payloads or slot.future is not None:
            return
        if BACKEND_SP in slot.payloads:
            dm: DistributedMatrix = slot.payloads[BACKEND_SP]
            self._await(slot, self.tiers.spark_context.collect_async(dm.rdd))
        elif BACKEND_GPU in slot.payloads:
            data: GpuData = slot.payloads[BACKEND_GPU]
            ready = self.tiers.gpu.to_host_async(data)
            self._await(slot, SimFuture(self.clock, ready, data.value,
                                        label="gpu_prefetch"))

    def _await(self, slot: Slot, future: SimFuture) -> None:
        """Consumers of ``slot`` wait on ``future``: a prefetch issued."""
        slot.future = future
        self.stats.inc(PREFETCH_ISSUED)
        if self.tracer.enabled:
            self.tracer.instant(EV_PREFETCH, LANE_CP, label=future.label,
                                ready=future.ready_time)

    def _issue_broadcast(self, slot: Slot) -> None:
        """Asynchronously partition + register a broadcast variable."""
        if slot.broadcast is not None:
            return
        value = slot.payloads.get(BACKEND_CP)
        if not isinstance(value, MatrixValue):
            return
        # asynchronous: the partitioning overlaps with host execution,
        # so only the registration latency is charged
        slot.broadcast = self.tiers.spark.broadcast(value)
        self.stats.inc(BROADCAST_ISSUED)
        if self.tracer.enabled:
            self.tracer.instant(EV_BROADCAST, LANE_CP, nbytes=value.nbytes)


#: :func:`repro.runtime.placement.spark_operator`'s names -> the
#: ``Interpreter._sp_<name>`` method that runs each.
SPARK_OPERATORS = {name[4:]: run for name, run in vars(Interpreter).items()
                   if name.startswith("_sp_")}
