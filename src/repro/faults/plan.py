"""Deterministic fault schedules: what fails, where, and how often.

A :class:`FaultPlan` is a *seeded, declarative* schedule of injected
failures plus the retry budgets that bound the recovery machinery.  Every
fault is keyed either to a **site index** (the n-th Spark task launched,
the n-th GPU allocation, the n-th interpreter instruction, ...) or to the **sim clock** (first matching site at or
after ``after_time`` simulated seconds).  Because the simulator itself is
deterministic, a given plan replayed against the same program produces
the identical sequence of faults, retries, and recoveries — which is what
lets the chaos suite assert that faulted runs converge to outputs
numerically identical to the fault-free run.

Plans have one text form, the compact DSL :meth:`FaultPlan.parse`
reads (harness ``--faults``); it expresses every spec and plan field::

    spark_task@3;gpu_alloc@0,count=2;executor_loss@1,executor=2;seed=7

Fault *effects* only ever alter simulated time, allocation churn, and
counters — never computed values.  Recovery recomputes the identical
numpy kernels, so final numerics are bit-equal to the fault-free run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

# ------------------------------------------------------------- fault kinds

#: one Spark task attempt fails after computing (result discarded).
KIND_SPARK_TASK = "spark_task"
#: an executor dies before a job: its shuffle files + cached partitions vanish.
KIND_EXECUTOR_LOSS = "executor_loss"
#: one ``cudaMalloc`` fails (driver error / transient OOM).
KIND_GPU_ALLOC = "gpu_alloc"
#: a driver-cache spill write fails (payload dropped instead of spilled).
KIND_SPILL_IO = "spill_io"
#: a disk-resident cache binary is unreadable (restore fails, entry lost).
KIND_RESTORE_IO = "restore_io"
#: every copy of a randomly chosen cached intermediate is lost.
KIND_CACHE_LOST = "cache_lost"

KINDS = (
    KIND_SPARK_TASK, KIND_EXECUTOR_LOSS, KIND_GPU_ALLOC, KIND_SPILL_IO,
    KIND_RESTORE_IO, KIND_CACHE_LOST,
)

#: which occurrence counter each kind is keyed to (documentation +
#: the schedule-spec reference in docs/FAULTS.md).
KIND_INDEX_MEANING = {
    KIND_SPARK_TASK: "n-th Spark task launched (map + result stages)",
    KIND_EXECUTOR_LOSS: "n-th Spark job submitted",
    KIND_GPU_ALLOC: "n-th GPU allocation request",
    KIND_SPILL_IO: "n-th disk spill attempt (driver cache or executor block)",
    KIND_RESTORE_IO: "n-th driver-cache disk restore",
    KIND_CACHE_LOST: "n-th interpreter instruction",
}


@dataclass
class FaultSpec:
    """One scheduled fault.

    ``at`` indexes the kind's occurrence counter (0-based, see
    :data:`KIND_INDEX_MEANING`); ``at=None`` arms a clock-keyed fault
    that fires at the first matching site once the host sim clock
    reaches ``after_time``.  ``count`` fails the same site ``count``
    consecutive times (exercising retry loops); ``target`` names the
    executor a :data:`KIND_EXECUTOR_LOSS` fault kills (otherwise drawn
    from the injector's RNG).
    """

    kind: str
    at: Optional[int] = None
    count: int = 1
    target: Optional[int] = None
    after_time: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (expected one of {KINDS})"
            )
        if self.at is None and self.after_time is None:
            raise ValueError(
                f"fault spec {self.kind!r} needs an index (at=) or a "
                f"clock key (after_time=)"
            )
        if self.count < 1:
            raise ValueError(f"fault count must be >= 1, got {self.count}")


@dataclass
class FaultPlan:
    """A complete fault schedule plus recovery (retry) budgets."""

    specs: list[FaultSpec] = field(default_factory=list)
    #: seed of the injector's own RNG (victim selection for
    #: ``executor_loss`` without a target and for ``cache_lost``).
    seed: int = 1234
    #: Spark: failed task attempts tolerated per task before the job fails.
    max_task_retries: int = 3
    #: GPU: failed allocation attempts tolerated per request (each retry
    #: is preceded by an evict — ``empty_cache`` — recovery step).
    max_alloc_retries: int = 3

    # -- command-line spec ----------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``--faults`` argument: the ``;``-separated DSL::

            kind@index[,key=value...] | kind,after=seconds[,...] | key=value

        Spec keys: ``count``, ``executor``/``target``, ``after``.  Plan
        keys: any numeric :class:`FaultPlan` field (``seed``,
        ``max_task_retries``, ``max_alloc_retries``).
        """
        plan = cls()
        for token in filter(None, (t.strip() for t in spec.split(";"))):
            head, _, tail = token.partition(",")
            if "@" in head:
                kind, _, index = head.partition("@")
                fields: dict = {"kind": kind.strip(), "at": int(index)}
            elif "=" not in head:
                fields = {"kind": head.strip()}  # clock-keyed: needs after=
            else:
                _set_plan_field(plan, token)
                continue
            for part in filter(None, (p.strip() for p in tail.split(","))):
                key, _, value = part.partition("=")
                key = key.strip()
                if key == "count":
                    fields["count"] = int(value)
                elif key in ("executor", "target"):
                    fields["target"] = int(value)
                elif key == "after":
                    fields["after_time"] = float(value)
                else:
                    raise ValueError(f"unknown fault spec key {key!r}")
            plan.specs.append(FaultSpec(**fields))
        return plan

    # -- randomized plans (chaos sweep) ---------------------------------------

    @classmethod
    def randomize(cls, seed: int, n_faults: int = 4, max_index: int = 24,
                  kinds: Optional[tuple] = None) -> "FaultPlan":
        """A small random plan for the seed sweeps
        (``tests/test_chaos.py``, ``benchmarks/test_matrix.py``).

        Fault counts stay within the default retry budgets so every
        generated plan is recoverable; the plan itself is a pure function
        of ``seed``.
        """
        rng = random.Random(seed)
        pool = list(kinds or (
            KIND_SPARK_TASK, KIND_EXECUTOR_LOSS, KIND_GPU_ALLOC,
            KIND_CACHE_LOST, KIND_SPILL_IO, KIND_RESTORE_IO,
        ))
        specs = [
            FaultSpec(
                kind=rng.choice(pool),
                at=rng.randrange(max_index),
                count=rng.randint(1, 2),
            )
            for _ in range(n_faults)
        ]
        return cls(specs=specs, seed=seed)


def _set_plan_field(plan: FaultPlan, token: str) -> None:
    key, _, value = token.partition("=")
    key = key.strip()
    current = getattr(plan, key, None)
    if current is None or key == "specs":
        raise ValueError(f"unknown fault plan field {key!r}")
    setattr(plan, key, type(current)(float(value)))
