"""Outside-in span tracing for the benchmark's per-layer run.

Everything here lives in ``bench/``: the program under test is not
edited.  A :class:`SpanProbe` installs timing wrappers as *instance
attributes* on live objects (``Interpreter.run`` re-reads
``interp.cache.probe``, ``interp._exec_cpu``, ... on every run, so
instance wrappers are honoured) and, for code that is only reachable
through a module-level name (the compile passes imported into
``repro.core.session``, the ``Session``/``ServerReport`` constructors the
scheduler calls), on that module's namespace.  Every wrapper records one
span ``[name, parent, op, start, end]`` in memory; :meth:`SpanProbe.self_times`
turns a pass's spans into per-name *self* time (span minus child spans).
:meth:`SpanProbe.uninstall` removes every wrapper again.

:class:`NullProbe` has the same surface and does nothing, so workloads
are written once and the untraced (end-to-end) run pays no tracing cost.
"""

from __future__ import annotations

import contextlib
import time
from types import GeneratorType

import numpy as np

_pc = time.perf_counter

#: span name -> the per-layer time metric its self time is reported under.
SPAN_METRIC = {
    "handles.build": "handles.build_s",
    "compiler.compile": "compiler.compile_s",
    "compiler.cse": "compiler.cse_s",
    "compiler.placement": "compiler.placement_s",
    "compiler.linearize": "compiler.linearize_s",
    "memplan.plan": "memplan.plan_s",
    "dispatch.run": "dispatch.self_s",
    "cache.probe": "cache.probe_s",
    "cache.put": "cache.put_s",
    "memory.reserve": "memory.reserve_s",
    "memory.select_victim": "memory.select_victim_s",
    "cpu.exec": "cpu.exec_s",
    "spark.exec": "spark.exec_s",
    "spark.job": "spark.job_s",
    "gpu.exec": "gpu.exec_s",
    "session.init": "session.init_s",
    "session.evaluate": "session.evaluate_self_s",
    "substrate.attach": "substrate.attach_s",
    "substrate.fingerprint": "substrate.fingerprint_s",
    "substrate.admit": "substrate.admit_s",
    "substrate.namespace": "substrate.namespace_s",
    "server.sched": "server.sched_self_s",
    "server.report": "server.report_s",
}

#: compile sub-passes reported on their own *and* inside the inclusive
#: ``compiler.compile_s``.
COMPILE_PASSES = ("compiler.cse_s", "compiler.placement_s",
                  "compiler.linearize_s")


class NullProbe:
    """Untraced run: plain construction, no wrappers, no spans."""

    traced = False

    def session(self, factory, *args, **kwargs):
        return factory(*args, **kwargs)

    def substrate(self, substrate):
        return substrate

    def program(self, program):
        return program

    def span(self, name):
        return contextlib.nullcontext()


class SpanProbe:
    """Traced run: records spans around calls into each layer."""

    traced = True

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: one record per span: [name id, parent index, op id, start, end]
        self.spans: list[list] = []
        self._stack = [-1]
        #: id of the op being timed (-1 outside ops: set-up spans).
        self.op = -1
        self._patched: list[tuple[object, str, bool, object]] = []
        self._instrumented: set[int] = set()
        #: tallies only the wrappers can see (no Stats counter exists).
        self.victim_scans = 0
        self.victim_scan_len = 0
        self.blocks = 0
        self.block_hops = 0

    # -- span recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            if name not in SPAN_METRIC:
                raise KeyError(f"span {name!r} maps to no layer metric")
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> list:
        rec = [self._name_id(name), self._stack[-1], self.op, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[3] = _pc()
        return rec

    def end(self, rec: list) -> None:
        rec[4] = _pc()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self.begin(name)
        try:
            yield
        finally:
            self.end(rec)

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as one span; ``after(result, *args)`` tallies counts."""
        nid = self._name_id(name)
        spans = self.spans
        stack = self._stack
        probe = self

        def traced(*args, **kwargs):
            rec = [nid, stack[-1], probe.op, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = _pc()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = _pc()
                stack.pop()
            if after is not None:
                after(out, *args)
            return out

        traced.__wrapped__ = fn
        return traced

    def reset_spans(self) -> None:
        """Drop recorded spans and tallies (start of a traced pass)."""
        del self.spans[:]
        self.victim_scans = self.victim_scan_len = 0
        self.blocks = self.block_hops = 0

    # -- installing wrappers -------------------------------------------------

    def _replace(self, owner, attr: str, replacement) -> None:
        own = vars(owner)
        self._patched.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, replacement)

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        self._replace(owner, attr,
                      self.wrap(name, getattr(owner, attr), after))

    def install_module_wrappers(self) -> None:
        """Wrap the names only reachable through a module namespace."""
        import repro.core.session as session_mod
        import repro.server.scheduler as scheduler_mod

        self._patch(session_mod, "eliminate_common_subexpressions",
                    "compiler.cse")
        self._patch(session_mod, "assign_placements", "compiler.placement")
        self._patch(session_mod, "depth_first", "compiler.linearize")
        self._patch(session_mod, "max_parallelize", "compiler.linearize")
        session_cls = scheduler_mod.Session
        self._replace(
            scheduler_mod, "Session",
            lambda *a, **kw: self.session(session_cls, *a, **kw),
        )
        self._patch(scheduler_mod, "ServerReport", "server.report")

    def session(self, factory, *args, **kwargs):
        """Construct a session under a ``session.init`` span, then wrap it."""
        rec = self.begin("session.init")
        try:
            sess = factory(*args, **kwargs)
        finally:
            self.end(rec)
        self._instrument_session(sess)
        return sess

    def _instrument_session(self, sess) -> None:
        p = self._patch
        p(sess, "evaluate", "session.evaluate")
        p(sess, "compute", "session.evaluate")
        p(sess, "_compile", "compiler.compile", self._note_block)
        if sess.memplanner is not None:
            p(sess.memplanner, "plan", "memplan.plan")
        interp = sess.interpreter
        p(interp, "run", "dispatch.run")
        p(interp, "_exec_cpu", "cpu.exec")
        p(interp, "_exec_spark", "spark.exec")
        p(sess.spark_context, "run_job", "spark.job")
        p(interp, "_exec_gpu", "gpu.exec")
        p(sess.gpu, "to_host", "gpu.exec")
        self.substrate(sess.substrate)
        if sess.arbiter is not sess.substrate.arbiter:
            self._instrument_arbiter(sess.arbiter)

    def _note_block(self, compiled, handles) -> None:
        if compiled is not None:
            self.blocks += 1
            self.block_hops += len(compiled[2])

    def _instrument_arbiter(self, arbiter) -> None:
        self._patch(arbiter, "reserve", "memory.reserve")
        self._patch(arbiter, "select_victim", "memory.select_victim",
                    self._note_victim_scan)

    def _note_victim_scan(self, victim, region, candidates) -> None:
        self.victim_scans += 1
        self.victim_scan_len += len(candidates)

    def substrate(self, substrate):
        """Wrap a substrate's cache, arbiter and (if shared) tenancy calls."""
        if id(substrate) in self._instrumented:
            return substrate
        self._instrumented.add(id(substrate))
        self._patch(substrate.cache, "probe", "cache.probe")
        self._patch(substrate.cache, "put", "cache.put")
        self._instrument_arbiter(substrate.arbiter)
        if substrate.shared:
            self._patch(substrate, "register_dataset",
                        "substrate.fingerprint")
            attach = self.wrap("substrate.attach", substrate.attach)
            traced_context = _traced_context_class(self)
            # SessionContext has __slots__, so its methods cannot be
            # wrapped per instance: hand the session a subclass instead.
            self._replace(
                substrate, "attach",
                lambda session, tenant=None: traced_context.adopt(
                    attach(session, tenant)),
            )
        return substrate

    def program(self, program):
        """Server program whose body (handle building) is ``handles.build``."""
        probe = self

        def traced_program(session):
            rec = probe.begin("handles.build")
            try:
                out = program(session)
            finally:
                probe.end(rec)
            if isinstance(out, GeneratorType):
                return _drive(out)
            return out

        def _drive(gen):
            while True:
                rec = probe.begin("handles.build")
                try:
                    next(gen)
                except StopIteration as stop:
                    return stop.value
                finally:
                    probe.end(rec)
                yield

        return traced_program

    def uninstall(self) -> None:
        """Remove every wrapper this probe installed."""
        for owner, attr, had_own, original in reversed(self._patched):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        del self._patched[:]
        self._instrumented.clear()

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> tuple[dict, dict, dict]:
        """Per span name: (self time over all spans, self time over in-op
        spans, span count)."""
        if not self.spans:
            return {}, {}, {}
        table = np.asarray(self.spans, dtype=np.float64)
        name = table[:, 0].astype(np.int64)
        parent = table[:, 1].astype(np.int64)
        in_op = table[:, 2] >= 0
        dur = table[:, 4] - table[:, 3]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        n = len(self.names)

        def by_name(values) -> dict:
            return dict(zip(self.names, values.tolist()))

        return (by_name(np.bincount(name, weights=self_time, minlength=n)),
                by_name(np.bincount(name[in_op], weights=self_time[in_op],
                                    minlength=n)),
                by_name(np.bincount(name, minlength=n)))

    def sample(self, max_spans: int = 50_000) -> dict:
        """A strided sample of whole ops, for the trace file.

        Spans of one op are contiguous and parent only within the op, so
        keeping whole ops keeps the tree; parent indices are re-based to
        positions in the sample.
        """
        spans = self.spans
        ops = sorted({rec[2] for rec in spans if rec[2] >= 0})
        stride = 1
        if ops and len(spans) > max_spans:
            stride = -(-len(spans) // max_spans)
        keep = set(ops[::stride])
        index: dict[int, int] = {}
        rows = []
        t0 = spans[0][3] if spans else 0.0
        for i, (nid, parent, op, start, end) in enumerate(spans):
            if op not in keep:
                continue
            index[i] = len(rows)
            rows.append([nid, index.get(parent, -1), op,
                         round((start - t0) * 1e6, 3),
                         round((end - t0) * 1e6, 3)])
        return {
            "names": list(self.names),
            "columns": ["name", "parent", "op", "start_us", "end_us"],
            "op_stride": stride,
            "spans_recorded": len(spans),
            "spans": rows,
        }


def _traced_context_class(probe: SpanProbe):
    """A ``SessionContext`` subclass timing ``namespaced`` and ``admit``."""
    from repro.core.substrate import SessionContext

    class TracedContext(SessionContext):
        __slots__ = ()

        @classmethod
        def adopt(cls, ctx: SessionContext) -> "TracedContext":
            return cls(ctx.substrate, ctx.uid, ctx.tenant)

        def namespaced(self, key):
            rec = probe.begin("substrate.namespace")
            try:
                return SessionContext.namespaced(self, key)
            finally:
                probe.end(rec)

        def admit(self, demands):
            rec = probe.begin("substrate.admit")
            try:
                return SessionContext.admit(self, demands)
            finally:
                probe.end(rec)

    return TracedContext
