"""The six benchmark workloads.

Each workload is a closed loop of *ops* over inputs generated from the
seed.  ``generate`` builds the inputs, the op schedule and the expected
results (not timed as set-up; reported as ``harness.gen_s``); ``setup``
builds fresh program state for one pass; ``op`` runs op ``i`` and returns
a small result the harness later hands to ``verify``.  The program under
test only ever sees the generated inputs, never the seed.

Why each workload exists is recorded in ``BENCHMARK.json`` and README.md.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.common.config import GB, KB, MB, MemphisConfig
from repro.common.stats import Stats
from repro.core.session import Session
from repro.core.substrate import Substrate
from repro.ml.l2svm import l2svm_core_iteration
from repro.ml.linreg import lin_reg_ds, lin_reg_predict, r2_score
from repro.ml.tuning import kfold_indices
from repro.server import Scheduler, impure_program, pure_program
from repro.server.demo import demo_dataset
from repro.workloads.base import make_session, scale_overheads
from repro.workloads.datagen import synthetic_regression
from repro.workloads.hcv import _complement
from repro.workloads.micro import ensemble_cnns

from tracing import NullProbe

#: share of ops that repeat an earlier configuration (paper §6.2: 40 %).
REUSE_SHARE = 0.4
#: relative tolerance of numpy oracles (same kernels, same op order).
RTOL = 1e-9


class PassState:
    """Program state of one pass plus the counters folded out of it."""

    def __init__(self) -> None:
        #: sessions whose stats / sim clock are not folded in yet.
        self.sessions: list[Session] = []
        #: shared substrates, or the private ones of ``sessions``.
        self.substrates: list[Substrate] = []
        self.stats = Stats()
        self.sim_s = 0.0
        self.session_inits = 0
        #: server rounds: fold each op's sessions in as soon as it ends.
        self.sessions_end_with_op = False
        self.cleanup = contextlib.ExitStack()

    def add_session(self, session: Session) -> Session:
        self.sessions.append(session)
        if not session.substrate.shared:
            self.substrates.append(session.substrate)
        return session

    def fold(self) -> None:
        """Fold finished sessions' counters and simulated time in."""
        for session in self.sessions:
            self.stats.merge(session.stats)
            self.sim_s += session.elapsed()
        self.session_inits += len(self.sessions)
        del self.sessions[:]

    def finish(self) -> dict:
        """Close the pass; returns its deterministic facts."""
        self.cleanup.close()
        self.fold()
        for substrate in self.substrates:
            if substrate.shared:
                self.stats.merge(substrate.stats)
        return {
            "sim_s": self.sim_s,
            "counters": self.stats.counters(),
            "session_inits": self.session_inits,
            "cache_entries_end": sum(len(s.cache) for s in self.substrates),
            "interner_size": sum(len(s.interner) for s in self.substrates),
        }


def repeat_schedule(rng: np.random.Generator, n_ops: int) -> list[int]:
    """Configuration index per op with an exact share of repeats.

    ``REUSE_SHARE`` of the ops (never the first) redraw an earlier
    configuration, Zipf(1.4)-ranked by creation order as in the paper's
    hyper-parameter micro-benchmark; the rest introduce a new one.  The
    share is exact, so every seed has the same number of distinct
    configurations and only *which* ones repeat varies.
    """
    repeats = np.zeros(n_ops, dtype=bool)
    chosen = rng.choice(np.arange(1, n_ops), replace=False,
                        size=min(round(REUSE_SHARE * n_ops), n_ops - 1))
    repeats[chosen] = True
    schedule, distinct = [], 0
    for i in range(n_ops):
        if repeats[i]:
            schedule.append(min(int(rng.zipf(1.4)) - 1, distinct - 1))
        else:
            schedule.append(distinct)
            distinct += 1
    return schedule


def draw_regs(rng: np.random.Generator, count: int) -> list[float]:
    """Distinct log-uniform regularisers in [1e-3, 10)."""
    regs: list[float] = []
    seen: set[float] = set()
    while len(regs) < count:
        reg = round(10.0 ** rng.uniform(-3, 1), 6)
        if reg not in seen:
            seen.add(reg)
            regs.append(reg)
    return regs


def mismatches(outs: list, expected: list, rtol: float = RTOL) -> int:
    """Ops whose result is missing (raised) or differs from the oracle."""
    done = [k for k, out in enumerate(outs) if out is not None]
    if not done:
        return len(outs)
    got = np.asarray([outs[k] for k in done], dtype=np.float64)
    want = np.asarray([expected[k] for k in done], dtype=np.float64)
    close = np.isclose(got, want, rtol=rtol, atol=1e-12)
    return len(outs) - int(close.reshape(len(done), -1).all(axis=1).sum())


def inconsistent_repeats(outs: list, schedule: list) -> int:
    """Ops that raised, or whose result differs from the first
    occurrence of the same configuration (reuse must not change results)."""
    first: dict = {}
    bad = 0
    for out, key in zip(outs, schedule):
        if out is None or not np.isfinite(out):
            bad += 1
        elif first.setdefault(key, out) != out:
            bad += 1
    return bad


class Workload:
    """Base: a name, op counts per pass, and the five hooks."""

    name = ""
    #: ops per pass at full size, and for ``--smoke``.
    ops = 0
    smoke_ops = 0

    def generate(self, seed: int, n_ops: int) -> dict:
        raise NotImplementedError

    def setup(self, inputs: dict, probe) -> PassState:
        raise NotImplementedError

    def op(self, state: PassState, inputs: dict, i: int):
        raise NotImplementedError

    def verify(self, inputs: dict, outs: list) -> int:
        """Number of ops whose result is wrong."""
        raise NotImplementedError


class TrainFit(Workload):
    """Ridge-gradient steps on 200x8: tiny kernels, no eviction."""

    name = "train_fit"
    sessions = 4
    ops = 4 * 2000
    smoke_ops = 4 * 100
    step = 0.002

    def generate(self, seed, n_ops):
        rng = np.random.default_rng(seed)
        iters = n_ops // self.sessions
        data, expected = [], []
        for _ in range(self.sessions):
            X = rng.random((200, 8))
            y = rng.random((200, 1))
            data.append((X, y))
            w = np.zeros((8, 1))
            for _ in range(iters):
                w = w - self.step * (X.T @ (X @ w) - X.T @ y)
                expected.append(w)
        return {"data": data, "iters": iters, "expected": expected}

    def setup(self, inputs, probe):
        state = PassState()
        state.fit = []
        for X, y in inputs["data"]:
            sess = state.add_session(
                probe.session(Session, MemphisConfig.memphis()))
            state.fit.append([sess.read(X, "X"), sess.read(y, "y"),
                              sess.read(np.zeros((8, 1)), "w0")])
        return state

    def op(self, state, inputs, i):
        fit = state.fit[i // inputs["iters"]]
        X, y, w = fit
        grad = X.t() @ (X @ w) - X.t() @ y
        w = w - self.step * grad
        out = w.compute()
        fit[2] = w
        return out

    def verify(self, inputs, outs):
        return mismatches(outs, inputs["expected"])


class Hpo(Workload):
    """L2SVM-core hyper-parameter search (Fig. 11 program)."""

    cols = 16
    input_bytes = 0
    cache_bytes = 0

    def generate(self, seed, n_ops):
        rng = np.random.default_rng(seed)
        rows = self.input_bytes // (8 * self.cols)
        X = rng.random((rows, self.cols))
        y = np.where(rng.random((rows, 1)) > 0.5, 1.0, -1.0)
        schedule = repeat_schedule(rng, n_ops)
        regs = draw_regs(rng, max(schedule) + 1)
        by_config = [self._reference(X, y, reg) for reg in regs]
        return {"X": X, "y": y, "regs": [regs[c] for c in schedule],
                "expected": [by_config[c] for c in schedule]}

    def _reference(self, X, y, reg):
        w = np.zeros((self.cols, 1)) + reg
        margin = y * (X @ w)
        residual = (margin - 1.0) * (margin < 1.0)
        grad = ((residual * y).T @ X).T + w * reg
        return float((w + grad * (-1.0 / (reg + float(X.shape[0])))).sum())

    def setup(self, inputs, probe):
        state = PassState()
        config = MemphisConfig.memphis()
        config.cache.driver_cache_bytes = self.cache_bytes
        # the 8 MB input exceeds the scaled operation memory: without
        # this its matmuls would be placed on Spark, and this is the
        # workload that measures the CPU kernels
        config.spark_enabled = False
        sess = state.add_session(probe.session(Session, config))
        state.sess = sess
        state.X = sess.read(inputs["X"], "X")
        state.y = sess.read(inputs["y"], "y")
        state.w = sess.read(np.zeros((self.cols, 1)), "w")
        return state

    def op(self, state, inputs, i):
        reg = inputs["regs"][i]
        w_new = l2svm_core_iteration(state.sess, state.X, state.y,
                                     state.w + reg, reg)
        return w_new.sum().item()

    def verify(self, inputs, outs):
        return mismatches(outs, inputs["expected"])


class HpoEvict(Hpo):
    """80 KB input against a 1 MB driver cache: working set >> cache."""

    name = "hpo_evict"
    input_bytes = 80 * KB
    cache_bytes = 1 * MB
    ops = 500
    smoke_ops = 80


class HpoKernel(Hpo):
    """8 MB input: numpy kernels dominate, a hit skips a real kernel."""

    name = "hpo_kernel"
    input_bytes = 8 * MB
    cache_bytes = 5 * GB // 16
    ops = 200
    smoke_ops = 30


class ReplayChecked(Workload):
    """Oracle for multi-backend workloads: a reuse-disabled session
    replays the first ``replay_ops`` ops, and every repeat must equal the
    first occurrence of its configuration."""

    replay_ops = 0

    def replay(self, inputs: dict) -> list:
        state = self.setup(inputs, NullProbe(), reuse=False)
        outs = [self.op(state, inputs, i)
                for i in range(min(self.replay_ops, len(inputs["schedule"])))]
        state.finish()
        return outs

    def verify(self, inputs, outs):
        prefix = inputs["expected_prefix"]
        return max(mismatches(outs[:len(prefix)], prefix),
                   inconsistent_repeats(outs, inputs["schedule"]))


class GpuScore(ReplayChecked):
    """Fig. 12(b) ensemble CNN scoring with duplicate mini-batches.

    The stream re-batches half way (4 -> 6 images per batch): sizes the
    allocator has no free pointer for arrive at a full device, so the
    Algorithm-1 cascade frees as well as recycles.
    """

    name = "gpu_score"
    hw = 24
    batch_sizes = (4, 6)
    ops = 800
    smoke_ops = 60
    replay_ops = 16

    def generate(self, seed, n_ops):
        rng = np.random.default_rng(seed)
        schedule = repeat_schedule(rng, n_ops)
        widest = max(self.batch_sizes)
        images = rng.random(((max(schedule) + 1) * widest,
                             3 * self.hw * self.hw))
        # a batch keeps the size of the phase that first produced it
        size_of: dict[int, int] = {}
        for i, batch in enumerate(schedule):
            phase = i * len(self.batch_sizes) // n_ops
            size_of.setdefault(batch, self.batch_sizes[phase])
        batches = [images[b * widest:b * widest + size_of[b]]
                   for b in range(max(schedule) + 1)]
        inputs = {"schedule": schedule, "batches": batches}
        inputs["expected_prefix"] = self.replay(inputs)
        return inputs

    def setup(self, inputs, probe, reuse=True):
        state = PassState()
        config = MemphisConfig.memphis() if reuse else MemphisConfig.base()
        config.gpu_enabled = True
        config.spark_enabled = False
        config.gpu.min_cells = 64
        scale_overheads(config, 1.0 / 64.0)
        state.sess = state.add_session(probe.session(Session, config))
        state.models = [model.build(state.sess, seed=41 + k)
                        for k, model in enumerate(ensemble_cnns(self.hw))]
        return state

    def op(self, state, inputs, i):
        index = inputs["schedule"][i]
        batch = state.sess.read(inputs["batches"][index], f"content_{index}")
        return sum(model.score(state.sess, batch).max().item()
                   for model in state.models)


class SparkCv(ReplayChecked):
    """HCV at 50 paper-GB: cross-validated linRegDS placed on Spark."""

    name = "spark_cv"
    paper_gb = 50.0
    cols = 64
    folds = 3
    ops = 460
    smoke_ops = 18
    replay_ops = 9

    def generate(self, seed, n_ops):
        rng = np.random.default_rng(seed)
        X, y = synthetic_regression(self.paper_gb, self.cols, seed + 1)
        schedule = repeat_schedule(rng, n_ops)
        regs = draw_regs(rng, max(schedule) + 1)
        inputs = {"X": X, "y": y, "schedule": schedule, "regs": regs,
                  "n_ops": n_ops}
        inputs["expected_prefix"] = self.replay(inputs)
        return inputs

    def setup(self, inputs, probe, reuse=True):
        state = PassState()
        sess = state.add_session(
            probe.session(make_session, "MPH" if reuse else "Base"))
        state.sess = sess
        state.X = sess.read(inputs["X"], "X")
        state.y = sess.read(inputs["y"], "y")
        state.fold_bounds = kfold_indices(state.X.nrow, self.folds)
        state.cleanup.enter_context(sess.block(
            "hcv", execution_frequency=inputs["n_ops"],
            reusable_fraction=0.9))
        return state

    def op(self, state, inputs, i):
        # a configuration is one (regulariser, fold) pair
        config = inputs["schedule"][i]
        sess, X, y = state.sess, state.X, state.y
        start, stop = state.fold_bounds[config % self.folds]
        X_train, y_train = _complement(sess, X, y, start, stop)
        beta = lin_reg_ds(sess, X_train, y_train, inputs["regs"][config])
        y_hat = lin_reg_predict(sess, X[start:stop, :], beta)
        return r2_score(sess, y[start:stop, :], y_hat).item()


class ServerLongrun(Workload):
    """Rounds of 8 requests on one persistent shared substrate."""

    name = "server_longrun"
    ops = 200
    smoke_ops = 20
    shapes = ((48, 6), (96, 8), (192, 8), (384, 12))
    pure_per_round = 6
    ridge_pool = 64
    #: per-tenant CP quota: small enough that fair-share shaping evicts
    #: from the first rounds on, large enough that nothing is refused.
    quota_bytes = 200 * KB
    tenants = ("alpha", "beta")

    def generate(self, seed, n_ops):
        rng = np.random.default_rng(seed)
        ridges = draw_regs(rng, self.ridge_pool)
        rounds, expected = [], []
        memo: dict = {}
        for _ in range(n_ops):
            requests = []
            for _ in range(self.pure_per_round):
                rows, cols = self.shapes[int(rng.integers(len(self.shapes)))]
                ridge = ridges[min(int(rng.zipf(1.4)), self.ridge_pool) - 1]
                requests.append((rows, cols, ridge))
            rounds.append(requests)
            expected.append([memo.setdefault(r, self._reference(*r))
                             for r in requests])
        return {"rounds": rounds, "expected": expected, "seed": seed}

    @staticmethod
    def _reference(rows, cols, ridge):
        X = demo_dataset(rows, cols)
        y = demo_dataset(rows, 1, offset=3.0)
        beta = np.linalg.solve(X.T @ X + ridge * np.eye(cols), (y.T @ X).T)
        return float(beta.sum())

    def setup(self, inputs, probe):
        state = PassState()
        substrate = probe.substrate(
            Substrate.shared_substrate(MemphisConfig.server_session()))
        for tenant in self.tenants:
            substrate.set_quota(tenant, self.quota_bytes)
        state.substrates.append(substrate)
        state.substrate = substrate
        state.probe = probe
        state.sessions_end_with_op = True
        return state

    def op(self, state, inputs, i):
        probe = state.probe
        with probe.span("server.sched"):
            scheduler = Scheduler(state.substrate, seed=inputs["seed"] + i)
            for k, (rows, cols, ridge) in enumerate(inputs["rounds"][i]):
                scheduler.submit(
                    self.tenants[k % 2],
                    probe.program(pure_program(rows, cols, ridge,
                                               name=f"X{rows}")),
                    name=f"pure{k}")
            for k, tenant in enumerate(self.tenants):
                scheduler.submit(tenant, probe.program(impure_program()),
                                 name=f"impure{k}")
            report = scheduler.run()
        state.sessions.extend(scheduler.sessions)
        return [(r.ok, r.value) for r in report.results]

    def verify(self, inputs, outs):
        bad = 0
        for results, want in zip(outs, inputs["expected"]):
            if results is None or not all(ok for ok, _ in results):
                bad += 1
                continue
            values = [value for _, value in results]
            pure, impure = values[:len(want)], values[len(want):]
            # impure requests sum the Gram matrix of 32x4 uniform noise:
            # the draw is session-local, so only its range is known
            if (not np.allclose(pure, want, rtol=1e-6)
                    or not all(0.0 < v < 32 * 4 * 4 for v in impure)):
                bad += 1
        return bad


WORKLOADS = {w.name: w for w in (TrainFit(), HpoEvict(), HpoKernel(),
                                 GpuScore(), SparkCv(), ServerLongrun())}
