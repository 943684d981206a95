"""The MEMPHIS session: public entry point of the library.

A :class:`Session` owns the three backends (the Spark and GPU tiers
built on first use, ``core/tiers.py``), the hierarchical lineage
cache, and the compiler; it exposes the handle API (``read``, ``rand``,
arithmetic on :class:`MatrixHandle`), multi-level (function) reuse, loop
and block contexts that drive the program-level rewrites of §5.2, and
the lineage APIs ``serialize``/``recompute`` of §3.1.

Typical use::

    from repro import Session, MemphisConfig

    sess = Session(MemphisConfig.memphis())
    X = sess.read(features, "X")
    y = sess.read(labels, "y")
    A = X.t() @ X
    b = (y.t() @ X).t()
    beta = sess.solve(A + 0.1 * sess.eye(X.ncol), b)
    print(beta.compute())
"""

from __future__ import annotations

import contextlib
import weakref
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.analysis.manager import verify_ir
from repro.analysis.memplan import SessionMemPlanner, explain_memory
from repro.backends.cpu.backend import CpuBackend
from repro.backends.gpu.backend import GpuData
from repro.backends.gpu.memmanager import MODE_MEMPHIS, MODE_POOL
from repro.common.config import MemphisConfig, ReuseMode
from repro.common.errors import RecomputationError
from repro.common.runtime import RuntimeContext, current as current_runtime
from repro.common.simclock import HOST, SimClock
from repro.common.stats import (
    CHECKPOINTS_PLACED,
    EVICT_INSTRUCTIONS,
    MEMPLAN_BLOCKS_PLANNED,
    Stats,
)
from repro.compiler.ir import KIND_OP, Hop, data_hop, literal_hop
from repro.compiler.linearize import depth_first, max_parallelize
from repro.compiler.plan import (
    BlockPlan,
    BlockShape,
    CompiledBlock,
    PlanMemo,
    lower,
)
from repro.compiler.rewrites.async_ops import (
    consumers_map,
    place_broadcast,
    place_prefetch,
)
from repro.compiler.rewrites.checkpoint import (
    place_shared_checkpoints,
    should_checkpoint_loop_var,
)
from repro.compiler.rewrites.cse import eliminate_common_subexpressions
from repro.compiler.rewrites.tuning import ProgramBlock, tune_block
from repro.core.entry import BACKEND_CP, BACKEND_GPU, BACKEND_SP
from repro.core.function_reuse import call_with_reuse
from repro.core.substrate import SessionContext, Substrate
from repro.core.tiers import BackendTiers
from repro.faults.injector import NULL_INJECTOR, FaultInjector
from repro.lineage.item import LineageItem
from repro.memory import REGION_CP, MemoryArbiter
from repro.lineage.recompute import replay
from repro.lineage.serialize import deserialize, serialize
from repro.obs.explain import LEVEL_FULL, render_plan, snapshot_plan
from repro.obs.metrics import sample as sample_gauges
from repro.obs.tracer import NULL_TRACER
from repro.runtime.handles import MatrixHandle
from repro.runtime.interpreter import Interpreter, Slot
from repro.runtime.placement import assign_placements, mark_fused_transposes
from repro.runtime.values import MatrixValue, ScalarValue, Value


class Session:
    """One MEMPHIS execution context (driver + backends + cache)."""

    def __init__(self, config: Optional[MemphisConfig] = None, *,
                 substrate: Optional[Substrate] = None,
                 tenant: Optional[str] = None,
                 runtime: Optional[RuntimeContext] = None) -> None:
        #: captured once: this session's collaborators and id space stay
        #: those of the context it was built in, whatever is current later.
        rt = self.runtime = (runtime if runtime is not None
                             else current_runtime())
        cfg = self.config = config or MemphisConfig.memphis()
        self.ids = rt.ids
        self.clock = SimClock()
        self.stats = Stats()
        # The runtime context is the one activation of the collectors
        # (how harness --trace/--explain reach sessions created
        # deep inside workload drivers): the context's, else the NULL
        # singleton (one ``enabled`` check per guard).
        label = cfg.reuse_mode.value
        trace = self.trace_collector = rt.trace
        self.tracer = (
            trace.tracer(self.clock, label=label)
            if trace is not None else NULL_TRACER)
        self.explain_collector = rt.explain
        self.faults = (
            FaultInjector(rt.faults, self.clock, self.stats,
                          tracer=self.tracer)
            if rt.faults is not None else NULL_INJECTOR)
        # a context collector plans and verifies every block, across
        # sessions; the verifier reports, it never raises
        self.ir_collector = rt.analysis
        # reuse substrate (CP/DISK arbiter, lineage cache, interner): a
        # shared one — injected, or the context's — is attached, with
        # namespaced lineage keys and fair-share CP/DISK admission
        # (docs/SERVER.md); the default is private to this session.
        if substrate is None:
            substrate = rt.substrate
        if substrate is not None and substrate.shared:
            self.substrate = substrate
            self._ctx: Optional[SessionContext] = substrate.attach(
                self, tenant)
            # backend regions (Spark tiers, GPU) stay
            # session-private: only CP/DISK live on the shared arbiter.
            self.arbiter = MemoryArbiter(
                self.stats, tracer=self.tracer, faults=self.faults)
            # holistic eviction still consults driver-cache residency:
            # the session's GPU manager asks the *shared* cache.
            self.arbiter.register_residency(
                REGION_CP, substrate.cache.has_host_copy_for)
        else:
            self.substrate = Substrate(
                cfg, stats=self.stats, clock=self.clock,
                tracer=self.tracer, faults=self.faults, runtime=rt)
            self._ctx = None
            self.arbiter = self.substrate.arbiter
        # static memory planning: the analysis collector checks the
        # plans, and an attached session needs them — its planned peaks
        # are what the shared substrate's admission gate checks
        self.memplanner: Optional[SessionMemPlanner] = None
        if rt.analysis is not None or self._ctx is not None:
            self.memplanner = SessionMemPlanner(cfg)
            if rt.analysis is not None:
                rt.analysis.register(self.memplanner)
        self.cache = self.substrate.cache
        #: hash-consing table: every item the session traces (op items,
        #: literal and data leaves, function keys) is interned, so
        #: repeated keys probe the cache by identity, not DAG comparison.
        self.lineage_interner = self.substrate.interner
        self.cpu = CpuBackend(cfg.cpu, self.clock, self.stats)
        #: the Spark and GPU tiers, each built on first use; their
        #: regions are registered on the arbiter now (core/tiers.py)
        self.tiers = BackendTiers(
            cfg, self.clock, self.stats, self.arbiter, self.cache,
            tracer=self.tracer, faults=self.faults, ids=rt.ids,
            gpu_mode=self._gpu_mode())
        # collaborators, not the session: no Session <-> Interpreter
        # cycle, so a finished session is freed by reference counting
        self.interpreter = Interpreter(
            cfg, stats=self.stats, clock=self.clock,
            substrate=self.substrate, tiers=self.tiers, cpu=self.cpu,
            tracer=self.tracer, faults=self.faults,
            session=weakref.ref(self))
        #: bound server request (``repro.obs.request``), set by the
        #: scheduler via :meth:`bind_request`; ``None`` when standalone.
        self.request = None
        #: named input datasets: when a fault loses a cached intermediate,
        #: RECOMPUTE replays its trace from these roots (§3.2).
        self._datasets: dict[str, Union[np.ndarray, float]] = {}
        self._seed_counter = 10_000_000
        self._last_loop_name: Optional[str] = None
        #: block shape -> compile plan (``compiler/plan.py``)
        self._plans = PlanMemo()

    # the tiers, built on first read (the interpreter reads them from
    # ``tiers`` directly)
    spark_context = property(lambda self: self.tiers.spark_context)
    spark = property(lambda self: self.tiers.spark)
    spark_mgr = property(lambda self: self.tiers.spark_mgr)
    gpu = property(lambda self: self.tiers.gpu)

    @property
    def delay_factor(self) -> int:
        """Delayed-caching threshold of PUTs in the current block."""
        return self.interpreter.delay_factor

    def _gpu_mode(self) -> str:
        if self.config.gpu_memory_mode is not None:
            return self.config.gpu_memory_mode
        if self.config.reuse_mode in (ReuseMode.FULL, ReuseMode.OPERATOR_ONLY):
            return MODE_MEMPHIS
        # SystemDS's baseline GPU backend already maintains free-list
        # pools; MODE_MALLOC (cudaMalloc/cudaFree per operation) is only
        # used by the forced-allocation micro-benchmark of Fig. 2(d)
        return MODE_POOL

    # ------------------------------------------------------------- constructors

    def read(self, data: Union[np.ndarray, float, int],
             name: Optional[str] = None) -> MatrixHandle:
        """Bind an input dataset (or scalar) as an evaluated handle."""
        if isinstance(data, (float, int)):
            value: Value = ScalarValue(float(data))
        else:
            value = MatrixValue(np.asarray(data, dtype=np.float64))
        handle = MatrixHandle(self, literal_hop(0.0, self.ids), name=name)
        handle.hop = data_hop(handle, value.shape)
        handle.lineage = self.lineage_interner.dataset(
            name if name else f"anon_{handle.hop.id}")
        handle.payloads = {BACKEND_CP: value}
        handle.hop.bundle = (handle.lineage, handle.payloads)
        if name is not None:
            self._datasets[name] = (
                value.data if isinstance(value, MatrixValue)
                else float(data)
            )
            if self._ctx is not None:
                # shared substrate: record the content fingerprint so
                # ``data`` leaves only unify across sessions reading the
                # same bytes under this name
                self.substrate.register_dataset(
                    self._ctx, name, self._datasets[name]
                )
        return handle

    def op(self, opcode: str, inputs: list[Hop],
           attrs: Optional[dict] = None) -> MatrixHandle:
        """A lazy handle for ``opcode`` over ``inputs``.

        The one place operator hops are built for this session — the
        handle operators route here too — so every hop of its DAGs is
        numbered from the session's own id space.
        """
        return MatrixHandle(
            self, Hop(KIND_OP, opcode, inputs, attrs, ids=self.ids))

    def scalar(self, value: float) -> MatrixHandle:
        """A literal scalar handle."""
        return MatrixHandle(self, literal_hop(float(value), self.ids))

    def rand(self, rows: int, cols: int, min: float = 0.0, max: float = 1.0,
             sparsity: float = 1.0, pdf: str = "uniform",
             seed: Optional[int] = None) -> MatrixHandle:
        """Random matrix; a fixed ``seed`` makes the result reusable.

        Without a seed, a fresh unique seed is drawn (the lineage then
        never matches, i.e. the operation is treated as non-deterministic,
        matching SystemDS's handling of unseeded ``rand``).
        """
        if seed is None:
            self._seed_counter += 1
            seed = self._seed_counter
        return self.op("rand", [], {
            "rows": rows, "cols": cols, "min": min, "max": max,
            "sparsity": sparsity, "pdf": pdf, "seed": int(seed),
        })

    def seq(self, start: float, stop: float, step: float = 1.0) -> MatrixHandle:
        """Column vector ``start, start+step, ..., <= stop``."""
        return self.op("seq", [], {"from": start, "to": stop, "incr": step})

    def fill(self, rows: int, cols: int, value: float) -> MatrixHandle:
        """Constant matrix (via rand with min == max)."""
        return self.rand(rows, cols, min=value, max=value, seed=0)

    def eye(self, n: int) -> MatrixHandle:
        """Identity matrix."""
        return self.diag(self.fill(n, 1, 1.0))

    def diag(self, handle: MatrixHandle) -> MatrixHandle:
        return self.op("diag", [handle.hop])

    # ------------------------------------------------------------------ operators

    def solve(self, a: MatrixHandle, b: MatrixHandle) -> MatrixHandle:
        """Solve the linear system ``A x = b``."""
        return self.op("solve", [a.hop, b.hop])

    def cbind(self, *handles: MatrixHandle) -> MatrixHandle:
        return self.op("cbind", [h.hop for h in handles])

    def rbind(self, *handles: MatrixHandle) -> MatrixHandle:
        return self.op("rbind", [h.hop for h in handles])

    def table(self, rows: MatrixHandle, cols: MatrixHandle,
              nrow: int, ncol: int) -> MatrixHandle:
        """Contingency table (used for one-hot encoding)."""
        return self.op("table", [rows.hop, cols.hop],
                       {"rows": nrow, "cols": ncol})

    def conv2d(self, images: MatrixHandle, filters: MatrixHandle,
               shape: dict) -> MatrixHandle:
        """2-D convolution over linearized NCHW matrices.

        ``shape`` holds N/C/H/W/K/R/S plus optional stride and pad.
        """
        return self.op("conv2d", [images.hop, filters.hop], dict(shape))

    def maxpool(self, images: MatrixHandle, shape: dict) -> MatrixHandle:
        """Max pooling over linearized NCHW matrices."""
        return self.op("maxpool", [images.hop], dict(shape))

    def recode(self, x: MatrixHandle) -> MatrixHandle:
        """Dictionary-encode categorical columns to dense 1-based codes."""
        return self.op("recode", [x.hop])

    def bin(self, x: MatrixHandle, num_bins: int = 10) -> MatrixHandle:
        """Equi-width binning of numerical columns."""
        return self.op("bin", [x.hop], {"num_bins": num_bins})

    def quantile(self, x: MatrixHandle, p: float) -> MatrixHandle:
        """Column-wise quantile at probability ``p``."""
        return self.op("quantile", [x.hop], {"p": p})

    # ------------------------------------------------------------------ evaluation

    def _compile(self, handles: Sequence[MatrixHandle]):
        """Run the full compile pipeline over one basic block.

        Rewrites (CSE, placement, transpose fusion, checkpoint/prefetch/
        broadcast placement) and linearization, shared verbatim between
        :meth:`evaluate` and :meth:`explain` so a plan dump shows exactly
        what would execute.  The CSE walk also keys the block's shape: a
        shape this session has compiled twice replays its recorded plan
        instead of running the passes after CSE (``compiler/plan.py``).
        Returns a :class:`~repro.compiler.plan.CompiledBlock`, the tuple
        ``(roots, root_hops, order, extra)`` carrying the lowered
        ``program``, or ``None`` when nothing is pending.
        """
        roots = [h for h in handles if h.hop.kind == KIND_OP]
        if not roots:
            return None
        shape = BlockShape()
        root_hops, extra = eliminate_common_subexpressions(
            [h.hop for h in roots], shape)
        for handle, hop in zip(roots, root_hops):
            handle.hop = hop
        key = shape.key(self.config)
        found = self._plans.get(key)
        if found.__class__ is BlockPlan:
            return CompiledBlock(roots, root_hops, found.replay(shape.hops),
                                 extra, found.program)
        # one traversal serves the whole pipeline below: after CSE the
        # DAG structure is frozen (placement and the rewrites only set
        # per-hop flags), so each pass re-walking the DAG was pure
        # repeated traversal cost.  depth_first yields the deduplicated
        # post-order every pass needs (inputs before consumers) and
        # doubles as the final instruction order when no remote chains
        # call for max_parallelize reordering.
        nodes = depth_first(root_hops)
        assign_placements(root_hops, self.config, nodes)
        consumers = consumers_map(root_hops, nodes)
        mark_fused_transposes(nodes, consumers, self.config)
        place_shared_checkpoints(root_hops, self.config, consumers, nodes)
        place_prefetch(root_hops, self.config, consumers, nodes)
        place_broadcast(root_hops, self.config, consumers, nodes)
        if self.config.enable_max_parallelize:
            order = max_parallelize(root_hops, nodes)
        else:
            order = nodes
        program = lower(order)
        self._plans.note(key, found, shape.hops, order, program)
        return CompiledBlock(roots, root_hops, order, extra, program)

    def _activate(self) -> None:
        """Make this session the shared cache's active scope (no-op when
        the substrate is private)."""
        if self._ctx is not None:
            self.substrate.activate(self._ctx)

    def bind_request(self, ctx) -> None:
        """Bind a server :class:`~repro.obs.request.RequestContext`.

        While bound, every event this session's stack emits — dispatch
        spans, arbiter/cache instants, verifier diagnostics — carries
        the request's ``request_id``/``tenant`` args, and entries the
        shared cache creates record the request as their producer.
        Pass ``None`` to unbind.  Zero overhead when untraced: binding
        a :data:`~repro.obs.tracer.NULL_TRACER` is a no-op.
        """
        self.request = ctx
        if self._ctx is not None:
            self._ctx.request = ctx
        self.tracer.bind_request(ctx)

    def evaluate(self, handles: Sequence[MatrixHandle]) -> None:
        """Compile and execute the DAGs of ``handles`` (one basic block)."""
        self._activate()
        compiled = self._compile(handles)
        if compiled is None:
            return
        _, root_hops, order, extra = compiled
        if self.explain_collector is not None:
            self.explain_collector.capture(root_hops, order, self.config)
        plan = None
        if self.memplanner is not None:
            # static memory planning (repro.analysis.memplan): predict
            # the block's per-region peak footprint before it runs
            plan = self.memplanner.plan(root_hops, order)
            self.stats.inc(MEMPLAN_BLOCKS_PLANNED)
            if self._ctx is not None:
                # multi-tenant admission gate: the shared-region subset
                # of the demands must pass the tenant's quota and the
                # arbiter's admission predicate, or AdmissionError
                # surfaces to the scheduler as backpressure before
                # anything runs
                self._ctx.admit(plan.admission_demands())
        if self.ir_collector is not None:
            # static verification: runs the repro.analysis pass pipeline
            # over the post-rewrite DAG + proposed order (and the plan
            # just made) before anything executes and reports into the
            # context's collector
            verify_ir(
                root_hops, order, self.config,
                tracer=self.tracer, stats=self.stats,
                collector=self.ir_collector, plan=plan,
            )
        try:
            slots = self.interpreter.run(order, compiled.program)
            for hop, slot in zip(order, slots):
                if hop.kind != KIND_OP:
                    continue
                if slot.fused_from is not None:
                    continue
                handle = hop.handle
                if handle is None and not extra.get(hop.id):
                    continue
                if slot.future is not None and BACKEND_CP not in slot.payloads:
                    # an asynchronous action whose value escapes this block:
                    # resolve the future so the handle carries the prefetched
                    # driver copy (and the cache its action-reuse entry)
                    self.interpreter._to_cp(slot)
                if handle is not None:
                    self._rebind(handle, slot)
                for extra_handle in extra.get(hop.id, ()):  # CSE-merged handles
                    self._rebind(extra_handle, slot)
        finally:
            # also on the error path: a failed run must not leave its
            # frame (and the GPU references in it) on the stack
            self.interpreter.release_acquired()
        if self.memplanner is not None:
            # record the runtime's per-region peak watermarks so the
            # static prediction stays comparable (explain / --verify-ir)
            self.memplanner.observe(self.arbiter)
        if self.tracer.enabled:
            # end-of-block gauge sample: even tiny blocks (fewer
            # instructions than the sampling period) contribute one
            sample_gauges(self)

    def compute(self, handle: MatrixHandle) -> np.ndarray:
        """Force evaluation and return the driver-side numpy result."""
        self._activate()
        if handle.hop.kind == KIND_OP:
            self.evaluate([handle])
        if BACKEND_CP not in handle.payloads and handle.lineage is not None:
            entry = (
                self.cache.probe(handle.lineage)
                if self.config.reuse_mode.probes
                else self.cache.get_entry(handle.lineage)
            )
            if entry is not None and BACKEND_CP in entry.payloads:
                handle.payloads[BACKEND_CP] = entry.payloads[BACKEND_CP]
        if BACKEND_CP not in handle.payloads:
            slot = Slot(handle.lineage)
            slot.payloads = handle.payloads
            value = self.interpreter._to_cp(slot)
            handle.payloads[BACKEND_CP] = value
        value = handle.payloads[BACKEND_CP]
        if isinstance(value, ScalarValue):
            return np.full((1, 1), value.as_float())
        return value.data

    def _rebind(self, handle: MatrixHandle, slot: Slot) -> None:
        new_gpu: Optional[GpuData] = slot.payloads.get(BACKEND_GPU)
        handle.bind(slot.lineage, slot.payloads)
        if new_gpu is not None and not new_gpu.ptr.freed:
            self.gpu.memory.retain(new_gpu.ptr)
            self._attach_gpu_finalizer(handle.hop, new_gpu.ptr)

    def _attach_gpu_finalizer(self, hop, ptr) -> None:
        """Release the GPU reference when the data hop becomes garbage.

        Payload lifetime follows the hop (one-way references, no cycles),
        so CPython's reference counting releases pointers promptly when
        the last handle or consumer DAG drops them.
        """
        hop.finalizer = weakref.finalize(
            hop, _release_ptr, self.gpu.memory, ptr
        )

    # --------------------------------------------------------- multi-level reuse

    def function(self, name: Optional[str] = None,
                 deterministic: bool = True) -> Callable:
        """Decorator enabling function-level (coarse-grained) reuse (§3.3).

        The wrapped function's outputs are cached under a special lineage
        item of the function name and input lineages; a repeated call with
        identical inputs skips the body entirely, even when inputs and
        outputs span multiple backends.
        """

        def decorate(fn: Callable) -> Callable:
            fname = name or fn.__name__

            def wrapper(*args):
                if not deterministic:
                    return fn(*args)
                return call_with_reuse(self, fname, fn, args)

            wrapper.__name__ = fn.__name__
            wrapper.__doc__ = fn.__doc__
            return wrapper

        return decorate

    # -------------------------------------------------------------- program hooks

    @contextlib.contextmanager
    def loop(self, name: str):
        """Loop context driving the program-level rewrites of §5.2.

        Entering a loop whose allocation pattern differs from the
        previous loop injects an ``evict`` instruction (eviction
        injection); calling ``ctx.update(var=handle)`` applies the
        loop-variable checkpoint rewrite to distributed updates.
        """
        self._enter_loop(name)
        ctx = LoopContext(self)
        try:
            yield ctx
        finally:
            ctx.finish()

    def _enter_loop(self, name: str) -> None:
        if (
            self.config.enable_eviction_injection
            and self._last_loop_name is not None
            and self._last_loop_name != name
            and self.tiers.built("gpu")
            and self.gpu.memory.free_bytes_pooled > 0
        ):
            self.evict_gpu(100.0)
        self._last_loop_name = name

    def evict_gpu(self, percent: float = 100.0) -> int:
        """The ``evict`` instruction (§5.2): clean up GPU free pools."""
        self.stats.inc(EVICT_INSTRUCTIONS)
        if self.explain_collector is not None:
            self.explain_collector.note_evict(
                f"evict_gpu({percent:g}%) at t={self.clock.now(HOST):.6f}s"
            )
        return self.gpu.memory.empty_cache(percent / 100.0)

    @contextlib.contextmanager
    def block(self, name: str, execution_frequency: int = 1,
              reusable_fraction: float = 1.0):
        """Basic-block context applying automatic parameter tuning (§5.2).

        Sets the delay factor and Spark storage level for puts issued
        inside the block, from the block's execution frequency and the
        fraction of its operations that are loop-independent (reusable).
        """
        interpreter, tiers = self.interpreter, self.tiers
        old_delay = interpreter.delay_factor
        old_level = tiers.storage_level
        if self.config.enable_auto_tuning:
            block = ProgramBlock(
                name,
                execution_frequency=execution_frequency,
                num_ops=100,
                num_loop_dependent_ops=int(
                    round((1.0 - reusable_fraction) * 100)
                ),
            )
            tuning = tune_block(block)
            interpreter.delay_factor = tuning.delay_factor
            tiers.storage_level = tuning.storage_level
        try:
            yield
        finally:
            interpreter.delay_factor = old_delay
            tiers.storage_level = old_level

    def checkpoint(self, handle: MatrixHandle) -> MatrixHandle:
        """Explicitly persist a (distributed) handle's RDD."""
        if handle.hop.kind == KIND_OP:
            self.evaluate([handle])
        dm = handle.payloads.get(BACKEND_SP)
        if dm is not None:
            self.stats.inc(CHECKPOINTS_PLACED)
            if not dm.rdd.is_persisted:
                dm.rdd.persist(self.spark_mgr.storage_level)
        return handle

    # ------------------------------------------------------------------ lineage API

    def lineage_of(self, handle: MatrixHandle) -> Optional[LineageItem]:
        """The lineage item of an evaluated handle (TRACE output)."""
        if handle.lineage is None and handle.hop.kind == KIND_OP:
            self.evaluate([handle])
        return handle.lineage

    def serialize_lineage(self, handle: MatrixHandle) -> str:
        """SERIALIZE: textual lineage log of a handle's trace (§3.1)."""
        item = self.lineage_of(handle)
        if item is None:
            raise RecomputationError("handle has no lineage to serialize")
        return serialize(item)

    def recompute(self, log: str,
                  inputs: Optional[dict[str, np.ndarray]] = None) -> np.ndarray:
        """RECOMPUTE: replay a serialized lineage log (§3.2).

        Rebuilds an expression DAG from the log and runs it through the
        full compilation chain, so the execution environment may differ
        from the one that produced the trace.  ``inputs`` supplies the
        named datasets referenced by ``data`` leaves.
        """
        _, result = replay(
            self, deserialize(log, self.ids), inputs or {},
            missing="recompute needs input dataset {name!r}")
        return result

    def recompute_from_lineage(self, item: LineageItem) -> Value:
        """Replay a live lineage trace to rebuild a lost value (§3.2).

        Fault-recovery entry point: when every cached copy of an
        intermediate has been lost (injected cache loss, GPU eviction
        under memory pressure, executor loss), the interpreter calls
        this to recompute the value from the session's registered input
        datasets.  Replays run through the full compilation chain, so
        still-cached sub-traces are reused rather than re-executed.
        """
        if item.opcode == "lit":
            return ScalarValue(float(item.data[0]))
        if item.opcode == "data":
            name = str(item.data[0])
            if name not in self._datasets:
                raise RecomputationError(
                    f"cannot recompute: dataset {name!r} is not registered"
                )
            data = self._datasets[name]
            return (ScalarValue(data) if isinstance(data, float)
                    else MatrixValue(data))
        handle, _ = replay(
            self, item, self._datasets,
            missing="cannot recompute: dataset {name!r} is not registered "
                    "with this session")
        value = handle.payloads.get(BACKEND_CP)
        if value is None:
            raise RecomputationError(
                f"lineage replay of {item.opcode!r} produced no CP value"
            )
        return value

    # ------------------------------------------------------------------ reporting

    def explain(self, handles: Optional[Sequence[MatrixHandle]] = None,
                level: str = LEVEL_FULL) -> str:
        """EXPLAIN: render the compiled plan of a basic block (no execution).

        With ``handles`` (one or a sequence of pending handles), the
        block is compiled through the same rewrite + linearization
        pipeline :meth:`evaluate` uses — post-rewrite HOP DAG, placement
        decisions, linearized instruction stream with reuse/prefetch/
        checkpoint annotations, and per-hop cost estimates — without
        executing anything.  Hop ids in the dump match the ids
        ``repro.analysis`` diagnostics and trace spans reference.

        Without ``handles``, renders every plan captured so far (needs
        a session built under ``runtime.scope(explain=ExplainCollector())``).

        ``level`` is one of ``"hops"``, ``"runtime"``, ``"full"``.
        """
        if handles is not None:
            if isinstance(handles, MatrixHandle):
                handles = [handles]
            compiled = self._compile(list(handles))
            if compiled is None:
                return "(nothing to explain: no pending operator DAG)"
            _, root_hops, order, _extra = compiled
            plan = snapshot_plan(root_hops, order, self.config)
            diagnostics = None
            if self.ir_collector is not None:
                diagnostics = self.ir_collector.merged()
            rendered = render_plan(plan, level, diagnostics)
            if level != "hops":
                rendered += "\n\n" + explain_memory(self, root_hops, order)
            return rendered
        if self.explain_collector is None:
            return ("(explain capture is off: pass handles, or create the "
                    "session under scope(explain=ExplainCollector()))")
        rendered = self.explain_collector.render(level)
        if level != "hops":
            rendered += "\n\n" + explain_memory(self, None, None)
        return rendered

    def elapsed(self) -> float:
        """Simulated end-to-end time (host timeline)."""
        return self.clock.now(HOST)

    def report(self) -> str:
        """Statistics report (SystemDS ``-stats`` style)."""
        return self.stats.report()

    def trace_events(self) -> list:
        """Structured trace events recorded so far (see ``repro.obs``).

        Empty unless the session was created under
        ``runtime.scope(trace=TraceCollector())``.
        """
        if self.trace_collector is not None:
            return [e for e in self.trace_collector.events()
                    if e.session == self.tracer.session_id]
        return []

    def export_trace(self, path: str) -> None:
        """Write this session's events as a Chrome/Perfetto trace file."""
        from repro.obs import export_chrome_trace

        export_chrome_trace(
            self.trace_events(),
            path,
            self.trace_collector.session_labels
            if self.trace_collector is not None else None,
        )


class LoopContext:
    """Runtime handle for one loop (checkpoint rewrite 2, §5.2)."""

    def __init__(self, session: Session) -> None:
        self.session = session
        self._previous: dict[str, MatrixHandle] = {}

    def update(self, **handles: MatrixHandle) -> None:
        """Declare loop-updated variables for the current iteration.

        Distributed updates are checkpointed (persist) so the next
        iteration's jobs do not lazily re-execute all previous iterations
        (Fig. 9(c)); the previous iteration's checkpoint of the same
        variable is unpersisted once superseded.
        """
        for name, handle in handles.items():
            if not should_checkpoint_loop_var(handle.shape,
                                              self.session.config):
                continue
            self.session.checkpoint(handle)
            prev = self._previous.get(name)
            if prev is not None and prev is not handle:
                dm = prev.payloads.get(BACKEND_SP)
                if dm is not None and dm.rdd.is_persisted:
                    dm.rdd.unpersist()
            self._previous[name] = handle

    def finish(self) -> None:
        """Loop exited; retained checkpoints stay for downstream reuse."""
        self._previous.clear()


def _release_ptr(memory, ptr) -> None:
    """weakref.finalize target: release a GPU pointer on handle GC."""
    if not ptr.freed:
        memory.release(ptr)
