"""Tests for ``repro.common.runtime``: the one runtime context.

Covers what the nine ambient slots and five module-level id counters it
replaced could not give: two servers in one process, scopes that restore
themselves, sessions that outlive the scope that built them — and a
structural guard that the old pattern does not come back.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import MemphisConfig, Session
from repro.backends.cpu import kernels
from repro.backends.gpu import GPU_OPCODES
from repro.backends.spark import SPARK_OPCODES
from repro.common.config import (
    CacheConfig,
    CpuConfig,
    EvictionPolicyName,
    GpuConfig,
    ReuseMode,
    SparkConfig,
)
from repro.common.runtime import RuntimeContext, current, scope
from repro.common.stats import Stats
from repro.compiler.ir import Hop
from repro.compiler.plan import BlockPlan
from repro.core.cache import LineageCache
from repro.core.entry import BACKEND_CP
from repro.lineage.item import LineageInterner, LineageItem
from repro.obs import TraceCollector
from repro.runtime.values import MatrixValue
from repro.server import Scheduler, impure_program, pure_program, run_server_demo
from repro.workloads.base import (
    SYSTEMS,
    WORKLOAD_OVERHEAD_SCALE,
    make_session,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")


def _use_lru(config: MemphisConfig) -> None:
    """A ``configure`` hook: CP cache on LRU, GPU free lists on LRC."""
    config.cache.policy = EvictionPolicyName.LRU
    config.gpu.policy = EvictionPolicyName.LRC


# ------------------------------------------------ (a) two servers, one process

def _outcome(report) -> tuple:
    """What a server run reports: the record code reads, every merged
    counter, and the text a person reads."""
    return report.as_record(), dict(report.merged.counters()), \
        report.format()


def _intruded(program):
    """``program`` with a whole second server — its own context, its own
    id space — run between the program's first and second quantum."""

    def wrapped(session):
        gen = program(session)
        next(gen)
        with RuntimeContext():
            assert run_server_demo(2, seed=3).ok
        yield
        return (yield from gen)

    return wrapped


def _interleaved_demo():
    """``run_server_demo(4, seed=0)``, except that request ``pure1`` has
    another context's scheduler run to completion in its middle, and the
    scheduler itself runs after its own context has exited."""
    with RuntimeContext():
        scheduler = Scheduler(seed=0)
    scheduler.add_tenant("alpha", None)
    scheduler.add_tenant("beta", None)
    for i in range(4):
        program = pure_program()
        scheduler.submit("alpha" if i % 2 == 0 else "beta",
                         _intruded(program) if i == 1 else program,
                         name=f"pure{i}")
    scheduler.submit("alpha", impure_program(), name="impure0")
    scheduler.submit("beta", impure_program(), name="impure1")
    return scheduler.run()


class TestTwoServersOneProcess:
    def test_reports_identical_to_each_other_and_a_fresh_process(self):
        runs = {}
        for name in ("first", "second"):
            with RuntimeContext():
                runs[name] = run_server_demo(4, seed=0)
        runs["interleaved"] = _interleaved_demo()
        got = {name: _outcome(report) for name, report in runs.items()}
        assert got["first"] == got["second"] == got["interleaved"]

        env = dict(os.environ, PYTHONPATH=SRC)
        fresh = subprocess.run(
            [sys.executable, "-m", "repro.harness", "--server", "4"],
            check=True, env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert fresh.stdout.startswith(
            runs["first"].format() + "\n[server: 4 session(s), seed 0, ")

    def test_traces_identical_under_separate_contexts(self):
        """Every id a trace mentions (hops, lineage keys, pointers)
        restarts with the context: two traced servers emit equal events."""
        streams = []
        for _ in range(2):
            with RuntimeContext(trace=TraceCollector()) as rt:
                assert run_server_demo(4, seed=0).ok
            streams.append([e.to_json() for e in rt.trace.events()])
        assert streams[0] and streams[0] == streams[1]


# ------------------------------------------------------ (b) scoping guarantees

class TestScopes:
    def test_nested_scope_restores_outer_after_exception(self):
        outer_tc, inner_tc = TraceCollector(), TraceCollector()
        base = current()
        with scope(trace=outer_tc) as outer:
            with pytest.raises(RuntimeError):
                with scope(trace=inner_tc, configure=_use_lru) as inner:
                    assert current() is inner
                    assert inner.trace is inner_tc
                    assert inner.configure is _use_lru
                    raise RuntimeError("boom")
            assert current() is outer
            assert outer.trace is outer_tc and outer.configure is None
        assert current() is base
        assert base.trace is None

    def test_derived_scope_shares_ids_fresh_context_does_not(self):
        with scope(configure=_use_lru) as derived:
            assert derived.ids is current().ids
        assert derived.ids is current().ids
        with RuntimeContext() as fresh:
            assert fresh.ids is not derived.ids
            assert next(fresh.ids.hop) == 1

    def test_unknown_collaborator_rejected(self):
        with pytest.raises(TypeError):
            scope(tracer=TraceCollector())
        # the four per-field override slots are gone, with no alias
        with pytest.raises(TypeError):
            scope(policy=EvictionPolicyName.LRU)
        # nor is there a sampled pipeline beside the tracer any more
        with pytest.raises(TypeError):
            scope(metrics=TraceCollector())
        # static analysis has one switch: memory planning rides on it
        with pytest.raises(TypeError):
            scope(memplan=None)
        assert len(RuntimeContext.__slots__) == 7

    def test_works_with_nothing_activated(self):
        # the process-default context: no collaborators, sessions run
        assert current().trace is None and current().substrate is None
        sess = Session(MemphisConfig.memphis())
        assert sess.runtime is current()
        X = sess.read(np.ones((4, 3)), "X")
        assert float((X.t() @ X).compute().sum()) == 36.0

    @pytest.mark.parametrize("leave", ["normally", "by_exception"])
    def test_configure_composes_and_ends_with_scope(self, leave):
        """The enclosing hook runs first, the inner one wins per field
        (``harness ablation-ordering --policy lru`` keeps both); regression:
        an installed ``--policy`` used to survive
        ``reset_ambient_state()`` — every later config stayed on LRU."""
        def outer(config):
            config.gpu_enabled = True
            config.cache.policy = EvictionPolicyName.MRD

        try:
            with scope(configure=outer):
                with scope(configure=_use_lru):
                    cfg = MemphisConfig.memphis()
                    assert cfg.gpu_enabled
                    assert cfg.cache.policy is EvictionPolicyName.LRU
                    assert cfg.gpu.policy is EvictionPolicyName.LRC
                cfg = MemphisConfig.memphis()
                assert cfg.gpu_enabled
                assert cfg.cache.policy is EvictionPolicyName.MRD
                assert cfg.gpu.policy is EvictionPolicyName.COST_SIZE
                if leave == "by_exception":
                    raise KeyError("boom")
        except KeyError:
            pass
        after = MemphisConfig.memphis()
        assert not after.gpu_enabled
        assert after.cache.policy is EvictionPolicyName.COST_SIZE
        assert after.gpu.policy is EvictionPolicyName.COST_SIZE

    @pytest.mark.parametrize("label", [*SYSTEMS, "server_session"])
    def test_configure_runs_last(self, label):
        """Regression: ``base_async`` / ``memphis_no_async`` (and four
        more) assigned their system's settings after ``__post_init__``,
        silently undoing a hook on ``Base-A`` and ``MPH-NA``."""
        factory = SYSTEMS.get(label, MemphisConfig.server_session)
        plain = factory()

        def flip(config):
            config.reuse_mode = ReuseMode.PROBE_ONLY
            config.enable_async_ops = not plain.enable_async_ops
            config.enable_max_parallelize = not plain.enable_max_parallelize
            config.spark_enabled = not plain.spark_enabled

        with scope(configure=flip):
            cfg = factory()
        assert cfg.reuse_mode is ReuseMode.PROBE_ONLY
        assert cfg.enable_async_ops is not plain.enable_async_ops
        assert cfg.enable_max_parallelize \
            is not plain.enable_max_parallelize
        assert cfg.spark_enabled is not plain.spark_enabled
        # and nothing else moved
        flip(plain)
        assert cfg == plain

    def test_make_session_keeps_override_and_scale(self):
        """The road the ablations take: the workloads' own
        ``make_session`` under a hook — the patched factories this
        replaced forgot ``scale_overheads``."""
        with scope(configure=_use_lru):
            cfg = make_session("MPH").config
        assert cfg.cache.policy is EvictionPolicyName.LRU
        assert cfg.cpu.instruction_overhead_s \
            == 3e-6 * WORKLOAD_OVERHEAD_SCALE
        assert make_session("MPH").config.cache.policy \
            is EvictionPolicyName.COST_SIZE


# --------------------------------------- (c) sessions outlive their scope

class TestSessionOutlivesScope:
    def test_handles_built_after_scope_exit_keep_unique_hop_ids(self):
        data = (np.arange(48.0).reshape(12, 4) % 7.0) / 7.0

        def pipeline(sess: Session, X):
            gram = X.t() @ X
            return (gram + gram * 0.5).relu()

        with RuntimeContext():
            plain = Session(MemphisConfig.memphis())
            expected = pipeline(plain, plain.read(data, "X")).compute()

        tc = TraceCollector()
        with scope(trace=tc):
            sess = Session(MemphisConfig.memphis())
            X = sess.read(data, "X")          # built inside the scope
        out = pipeline(sess, X)               # built after it exited
        compiled = sess._compile([out])
        ids = [hop.id for hop in compiled[2]]
        assert len(ids) == len(set(ids))
        assert X.hop.id in ids and out.hop.id in ids
        assert np.array_equal(out.compute(), expected)
        # still traced into the scope's collector, after the scope
        assert any(e.session == sess.tracer.session_id for e in tc.events())

    def test_session_under_fresh_context_numbers_from_its_own_space(self):
        with RuntimeContext() as rt:
            sess = Session(MemphisConfig.memphis())
        X = sess.read(np.ones((3, 3)), "X")   # after exit: rt's ids, not ours
        assert sess.ids is rt.ids is not current().ids
        assert (X + X).hop.id == next(rt.ids.hop) - 1


# ------------------------------------------------------ (d) structural guard

def _parsed_modules(root: str):
    """``(path, ast)`` of ``root`` if it is a python file, else of every
    python file under it."""
    paths = [root] if root.endswith(".py") else [
        os.path.join(dirpath, filename)
        for dirpath, _dirnames, filenames in os.walk(root)
        for filename in filenames if filename.endswith(".py")]
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            yield path, ast.parse(fh.read(), filename=path)


def test_no_global_statements_or_module_level_counters_outside_runtime():
    """One process-current slot, one id space: ``src/repro`` holds no
    ``global`` statement and no module-level ``itertools.count(`` outside
    ``common/runtime.py`` (12 and 5 before the runtime context)."""
    runtime_module = os.path.join(SRC, "repro", "common", "runtime.py")
    offenders = []
    for path, tree in _parsed_modules(os.path.join(SRC, "repro")):
        if path == runtime_module:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                offenders.append(f"{path}:{node.lineno}: global statement")
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "count"
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "itertools"):
                    offenders.append(
                        f"{path}:{node.lineno}: module-level "
                        f"itertools.count")
    assert offenders == []


def _imported_module_names(tree: ast.Module) -> set[str]:
    """Local names ``tree`` binds to *modules* (at any nesting level):
    ``import a.b`` binds ``a``, ``import a.b as c`` binds ``c``, and
    ``from a import b`` binds ``b`` when ``a.b`` is itself a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module \
                and not node.level:
            for alias in node.names:
                try:
                    spec = importlib.util.find_spec(
                        f"{node.module}.{alias.name}")
                except ModuleNotFoundError:  # ``node.module`` is no package
                    spec = None
                if spec is not None:
                    names.add(alias.asname or alias.name)
    return names


def _is_attribute_of(node: ast.AST, names: set[str]) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in names)


def test_no_module_under_src_patches_another_module():
    """No monkey-patches under ``src/repro``: no module assigns to (or
    ``setattr``s / deletes) an attribute of a module it imported — how
    the two ablations used to swap ``clean_mod.make_session`` /
    ``hcv_mod.make_session``.  ``scope(configure=...)`` is the road."""
    offenders = []
    for path, tree in _parsed_modules(os.path.join(SRC, "repro")):
        modules = _imported_module_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, (ast.Store, ast.Del)) \
                    and _is_attribute_of(node, modules):
                offenders.append(f"{path}:{node.lineno}: "
                                 f"{node.value.id}.{node.attr} = ...")
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id in ("setattr", "delattr") \
                    and node.args and isinstance(node.args[0], ast.Name) \
                    and node.args[0].id in modules:
                offenders.append(f"{path}:{node.lineno}: {node.func.id}"
                                 f"({node.args[0].id}, ...)")
    assert offenders == []


def test_every_runtime_context_slot_is_read_somewhere_in_src():
    """A context slot whose last reader is deleted cannot outlive it
    (sibling of the config-field guard below, matched by name too):
    each is loaded by a module other than ``common/runtime.py`` itself,
    which only stores and forwards them."""
    loaded = {
        node.attr
        for path, tree in _parsed_modules(os.path.join(SRC, "repro"))
        if not path.endswith(os.path.join("common", "runtime.py"))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert [slot for slot in RuntimeContext.__slots__
            if slot not in loaded] == []


def test_every_obs_export_resolves():
    """A name ``repro.obs`` re-exports cannot outlive its definition."""
    import repro.obs

    assert len(set(repro.obs.__all__)) == len(repro.obs.__all__)
    assert [name for name in repro.obs.__all__
            if not hasattr(repro.obs, name)] == []


def test_every_config_field_is_read_somewhere_in_src():
    """A config field whose last reader is deleted cannot outlive it:
    every field of the five config dataclasses is loaded as an attribute
    (``x.field`` in a read position — stores and the declaration itself
    do not count) somewhere under ``src/repro``.  Matched by name, so a
    same-named attribute of another class can mask a dead field."""
    loaded = {
        node.attr
        for _path, tree in _parsed_modules(os.path.join(SRC, "repro"))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{cls.__name__}.{field.name}"
        for cls in (SparkConfig, GpuConfig, CpuConfig, CacheConfig,
                    MemphisConfig)
        for field in dataclasses.fields(cls)
        if field.name not in loaded
    ]
    assert unread == []


def test_no_config_field_is_named_after_a_runtime_context_slot():
    """One road to each switch: faults and static analysis (verification
    and memory planning) are turned on by the runtime context alone, so
    no field of the five config dataclasses carries a slot's name (nor
    ``verify_ir`` or ``memplan``, the ``analysis`` slot's former config
    twins)."""
    fields = {
        field.name
        for cls in (SparkConfig, GpuConfig, CpuConfig, CacheConfig,
                    MemphisConfig)
        for field in dataclasses.fields(cls)
    }
    assert fields & {*RuntimeContext.__slots__, "verify_ir",
                     "memplan"} == set()


def test_no_compile_decision_is_a_hop_flag():
    """A rewrite's decision for one block lives in that block's lowered
    program (``compiler/plan.py::lower``): a slot on the hop would
    outlive the block and leak into every later block that reaches the
    hop, and a memo hit would have to replay it."""
    assert {"prefetch", "async_broadcast", "checkpoint",
            "fused"} & set(Hop.__slots__) == set()
    assert "flagged" not in BlockPlan.__slots__


def test_no_spark_operator_is_chosen_at_run_time():
    """``lower`` records each Spark instruction's physical operator
    (``runtime/placement.py::spark_operator``) and the interpreter runs it
    from one table: it reads neither the opcode table nor the matmul
    pattern, so nothing re-derives the operator per instruction."""
    path = os.path.join(SRC, "repro", "runtime", "interpreter.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1]
                         for alias in node.names)
    assert {"matmul_pattern", "SPARK_OPCODES"} & names == set()


def test_lineage_items_hash_and_compare_by_identity():
    """Every item the runtime traces comes from its substrate's interner,
    so structurally equal runtime items are one object and identity is
    equality: ``LineageItem`` defines no ``__hash__``/``__eq__`` and
    stores no hash, and a cache probe and put of an interned key run no
    Python-level hash or equality frame."""
    assert "__hash__" not in vars(LineageItem)
    assert "__eq__" not in vars(LineageItem)
    assert "_hash" not in LineageItem.__slots__
    interner = LineageInterner()
    x = interner.dataset("X")
    assert interner.dataset("X") is x
    item = interner.intern("exp", ("k",), (x,))
    assert interner.intern("exp", ("k",), (x,)) is item
    wrapper, created = interner.wrap("ns:1", item)
    assert created
    assert interner.wrap("ns:1", item) == (wrapper, False)
    assert interner.intern("ns:1", (), (item,)) is wrapper

    cache = LineageCache(CacheConfig(), Stats())
    value = MatrixValue(np.ones((2, 2)))
    frames: list[str] = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name in ("__hash__",
                                                        "__eq__"):
            frames.append(frame.f_code.co_qualname)

    sys.setprofile(profile)
    try:
        cache.probe(item)
        cache.put(item, value, BACKEND_CP, value.nbytes, 1.0)
        hit = cache.probe(item)
    finally:
        sys.setprofile(None)
    assert hit is not None
    assert frames == []


def test_every_backend_opcode_has_a_cp_kernel():
    """The Spark table and ``GPU_OPCODES`` name only operators the kernel
    library computes: a backend adds placement, never an operator."""
    assert set(SPARK_OPCODES) <= kernels.supported_opcodes()
    assert GPU_OPCODES <= kernels.supported_opcodes()


#: the modules that build operator hops: the session, the handle layer,
#: the rewrites, the algorithm library, the workloads and the federated
#: coordinator (it sends ``fed_tsmm`` to its workers).  The opcode tables
#: in ``backends/``, ``common/costs.py`` and ``compiler/ir.py`` define
#: operators; they produce none.
PRODUCERS = ("core", os.path.join("runtime", "handles.py"),
             os.path.join("compiler", "rewrites"), "ml", "workloads",
             os.path.join("backends", "federated"))


def test_every_kernel_opcode_has_a_producer():
    """An opcode nothing can emit cannot pile up a kernel, a shape rule,
    cost-table names and backend-table entries again: every opcode the
    kernel library registers is a string literal in a module that builds
    operator hops."""
    literals = {
        node.value
        for producer in PRODUCERS
        for _path, tree in _parsed_modules(os.path.join(SRC, "repro",
                                                        producer))
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert kernels.supported_opcodes() - literals == set()


def _opcode_names(tree: ast.AST) -> set:
    """The strings a module names as opcodes: set displays, and the
    right-hand side of ``opcode == …`` / ``opcode in (…)`` tests."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Set):
            elts = node.elts
        elif (isinstance(node, ast.Compare)
              and isinstance(node.left, ast.Name) and node.left.id == "opcode"):
            elts = [e for comp in node.comparators
                    for e in getattr(comp, "elts", [comp])]
        else:
            continue
        names |= {e.value for e in elts
                  if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return names


def test_every_costed_or_shaped_opcode_is_a_kernel():
    """The cost model and the shape rules name only operators the kernel
    library computes: a name no kernel implements is a cost or a shape
    nothing can ever ask for."""
    named = {
        name
        for module in (("common", "costs.py"), ("compiler", "ir.py"))
        for _path, tree in _parsed_modules(os.path.join(SRC, "repro",
                                                        *module))
        for name in _opcode_names(tree)
    }
    assert named and named - kernels.supported_opcodes() == set()


def test_backends_apply_the_kernel_librarys_own_cell_functions():
    """One copy of the operator math: no backend module nor the
    interpreter names a numpy cell function (``np.exp``, ``np.maximum``,
    …) — only a ufunc's ``.reduce`` may fold partials, as the matmul and
    federated column-sum partials do."""
    cell_functions = {id(fn) for fn in (*kernels.UNARY_UFUNCS.values(),
                                        *kernels.BINARY_UFUNCS.values())}
    kernels_path = os.path.join(SRC, "repro", "backends", "cpu", "kernels.py")
    trees = [t for p, t in _parsed_modules(os.path.join(SRC, "repro",
                                                        "backends"))
             if p != kernels_path]
    trees += [t for _p, t in _parsed_modules(os.path.join(SRC, "repro",
                                                          "runtime"))]
    offenders = []
    for tree in trees:
        folds = {id(node.value) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)}
        offenders += [
            node.attr for node in ast.walk(tree)
            if _is_attribute_of(node, {"np", "numpy"})
            and id(node) not in folds
            and id(getattr(np, node.attr, None)) in cell_functions
        ]
    assert offenders == []


def test_no_counter_is_incremented_by_a_string_literal():
    """Counter names live in ``common/stats.py``: no ``….inc("a/b")``
    (or f-string) under ``src/repro``, so a renamed or deleted counter
    cannot leave a silently diverging literal twin behind."""
    offenders = [
        f"{path}:{node.lineno}"
        for path, tree in _parsed_modules(os.path.join(SRC, "repro"))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute) and node.func.attr == "inc"
        and node.args
        and (isinstance(node.args[0], ast.JoinedStr)
             or (isinstance(node.args[0], ast.Constant)
                 and isinstance(node.args[0].value, str)))
    ]
    assert offenders == []
