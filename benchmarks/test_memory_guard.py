"""Memory-refactor guard: Fig. 12 stats byte-identical to the baseline.

The arbitration substrate (``repro.memory``) is a pure refactor under
the default Cost&Size policy: every reservation, eviction, spill, and
restore must happen at the same point with the same victim as before.
This guard re-runs the two memory-bound experiments — Fig. 12(a)
(driver cache sizes) and Fig. 12(b) (GPU eviction under pressure) —
and compares every simulated duration (exact float ``repr``) and every
pre-refactor counter against the recorded baseline in
``baselines/fig12_counters.json``.  Every other experiment
(:data:`GOLDEN`) is held the same way to ``baselines/experiments.json``
(every counter, ``memory/`` included), and so are a SHA-256 of the
rendered ``--explain --verify-ir`` plans of four of them
(:data:`EXPLAINED`) and the ``--server 8 --server-seed 7`` report
(:data:`SERVER`); a change meant to move them rewrites those records
with one command::

    REPRO_RECORD_BASELINES=1 PYTHONPATH=src python -m pytest \
        benchmarks/test_memory_guard.py -k golden

Counters introduced by the substrate itself (the ``memory/``
namespace) are additive and intentionally ignored: the guard asserts
the old behaviour is preserved, not that no new observability exists.

Two gates are on the process itself: every harness runner lets go of
the sessions, substrates, Spark contexts and lineage caches it built
without the cyclic garbage collector, and leaves it no ``repro``
object to find; and four experiments' peak resident memory stays under
a ceiling.
"""

import gc
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import weakref

import pytest

from repro.analysis import AnalysisCollector
from repro.backends.spark.context import SparkContext
from repro.common.runtime import scope
from repro.core.cache import LineageCache
from repro.core.session import Session
from repro.core.substrate import Substrate
from repro.harness import runner
from repro.harness.__main__ import EXPERIMENTS
from repro.obs import ExplainCollector
from repro.server import run_server_demo
from repro.workloads.base import WorkloadResult
BASELINE = pathlib.Path(__file__).parent / "baselines" / \
    "fig12_counters.json"
RECORDS = BASELINE.with_name("experiments.json")

#: experiments held to their record in ``experiments.json``.  ``pnmf``,
#: ``ablation-ordering``, ``fig11b`` and ``fig2c`` are the ones whose
#: blocks get §5 flags or a transpose read-through; ``pnmf`` and
#: ``fig11b`` take about 25 s each.
GOLDEN = ("hdrop", "en2de", "tlvis", "fig11a", "hcv", "hband", "clean",
          "fig2c", "fig2d", "fig11b", "pnmf", "table2",
          "ablation-policies", "ablation-ordering")

#: experiments whose rendered ``--explain --verify-ir`` plans are held to
#: a digest: all three §5 flags and ``{fused-skip}`` under both
#: linearizations, the lazy-caching Spark lane, the GPU recycling lane
#: and the GPU lane that walks Algorithm 1 past step 1.
EXPLAINED = ("ablation-ordering", "fig2c", "fig12b", "tlvis")

#: the key of the digests in ``experiments.json``.
DIGESTS = "explain-sha256"

#: the key of the ``--server 8 --server-seed 7`` report's ``as_record()``.
SERVER = "server-8-seed-7"


def snap(experiment) -> dict:
    """Reduce an ExperimentResult grid to comparable scalars, nested as
    the grid nests: a workload cell is its elapsed time (exact float
    ``repr``) and its counters, any other value its ``repr``."""
    return {str(key): _snap_cell(value)
            for key, value in experiment.grid.items()}


def _snap_cell(value):
    if isinstance(value, WorkloadResult):
        return {"elapsed": repr(float(value.elapsed)),
                "counters": dict(sorted(value.counters.items()))}
    if isinstance(value, dict):
        return {str(key): _snap_cell(inner) for key, inner in value.items()}
    return repr(value)


def compare(recorded, current, path: str) -> list[str]:
    """Every recorded cell must match: elapsed and plain values exactly,
    and every counter present in the baseline unchanged."""
    if isinstance(recorded, list):
        if len(recorded) != len(current):
            return [f"{path}: {len(recorded)} items -> {len(current)}"]
        return [line for i, (was, now) in enumerate(zip(recorded, current))
                for line in compare(was, now, f"{path}[{i}]")]
    if not isinstance(recorded, dict):
        return [] if recorded == current else [
            f"{path}: {recorded} -> {current}"]
    if recorded.keys() == {"elapsed", "counters"}:
        mismatches = compare(recorded["elapsed"], current["elapsed"],
                             f"{path}.elapsed")
        for counter, expected in recorded["counters"].items():
            actual = current["counters"].get(counter)
            if actual != expected:
                mismatches.append(
                    f"{path}.{counter}: {expected} -> {actual}")
        return mismatches
    mismatches = []
    for key, inner in recorded.items():
        if key not in current:
            mismatches.append(f"{path}[{key}]: missing")
        else:
            mismatches.extend(compare(inner, current[key], f"{path}[{key}]"))
    return mismatches


@pytest.fixture(scope="module")
def baseline() -> dict:
    if not BASELINE.exists():
        pytest.skip(f"no recorded baseline at {BASELINE}")
    return json.loads(BASELINE.read_text())


def test_fig12a_byte_identical(baseline):
    mismatches = compare(baseline["fig12a"],
                         snap(runner.run_experiment_fig12a()), "fig12a")
    assert not mismatches, "\n".join(mismatches)


def test_fig12b_byte_identical(baseline):
    mismatches = compare(baseline["fig12b"],
                         snap(runner.run_experiment_fig12b()), "fig12b")
    assert not mismatches, "\n".join(mismatches)


def record(key: str | None, name: str, value) -> None:
    """Write ``value`` as ``records[key][name]`` (``records[name]`` when
    ``key`` is ``None``) into ``experiments.json``."""
    records = json.loads(RECORDS.read_text()) if RECORDS.exists() else {}
    if key is None:
        records[name] = value
    else:
        records.setdefault(key, {})[name] = value
    RECORDS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_record(name):
    """The experiment's grid matches its record in ``experiments.json``;
    with ``REPRO_RECORD_BASELINES`` set, the grid is recorded instead."""
    current = snap(EXPERIMENTS[name]())
    if os.environ.get("REPRO_RECORD_BASELINES"):
        record(None, name, current)
        return
    mismatches = compare(json.loads(RECORDS.read_text())[name], current,
                         name)
    assert not mismatches, "\n".join(mismatches)


@pytest.mark.parametrize("name", EXPLAINED)
def test_golden_explain_digest(name):
    """The plans ``--explain --verify-ir`` renders for the experiment
    hash to their record (the render, not stdout, which carries wall
    times); with ``REPRO_RECORD_BASELINES`` set, the digest is recorded
    instead."""
    with scope(explain=ExplainCollector(),
               analysis=AnalysisCollector()) as rt:
        EXPERIMENTS[name]()
    digest = hashlib.sha256(rt.explain.render().encode()).hexdigest()
    if os.environ.get("REPRO_RECORD_BASELINES"):
        record(DIGESTS, name, digest)
        return
    assert json.loads(RECORDS.read_text())[DIGESTS][name] == digest


def test_golden_server_record():
    """The ``--server 8 --server-seed 7`` report's ``as_record()`` (every
    request, ``server/`` and ``cache/`` counter, tenant, SLO row and
    attribution cell) matches its record; with ``REPRO_RECORD_BASELINES``
    set, it is recorded instead."""
    current = json.loads(json.dumps(run_server_demo(8, seed=7).as_record()))
    if os.environ.get("REPRO_RECORD_BASELINES"):
        record(None, SERVER, current)
        return
    recorded = json.loads(RECORDS.read_text())[SERVER]
    mismatches = compare(recorded, current, SERVER)
    assert not mismatches, "\n".join(mismatches)
    assert current == recorded  # and nothing the record lacks


#: what a harness runner builds and must let go of when it returns.
OWNERS = (Session, Substrate, SparkContext, LineageCache)


@pytest.fixture
def built(monkeypatch):
    """Weak references to every :data:`OWNERS` instance built while the
    test runs."""
    refs: list[weakref.ref] = []
    for cls in OWNERS:
        def recording(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", recording)
    return refs


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_runner_frees_what_it_built_without_a_collection(name, built):
    """With the cyclic collector off, everything a runner built is freed
    by reference counting once it returns: no cycle holds a finished
    session's Spark tier, cache payloads or GPU Free list, and a
    collection afterwards finds no ``repro`` object at all."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = EXPERIMENTS[name]()
        alive = sorted({type(ref()).__name__ for ref in built
                        if ref() is not None})
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = sorted({type(obj).__qualname__ for obj in gc.garbage
                         if type(obj).__module__.startswith("repro")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert result.grid
    assert built, f"{name} built no session"
    assert alive == [], f"{name} left {alive} alive"
    assert cyclic == [], f"{name} left cyclic {cyclic}"


#: process-memory ceilings of ``python -m repro.harness <name>``, run
#: alone (MB of peak RSS): the measured peak + 15 % (Linux x86-64,
#: Python 3.11, numpy 2.4).  Finished sessions die by reference
#: counting, so the peak is one cell's working set, not the garbage of
#: every cell before it.
PEAK_RSS_MB = {"hband": 695, "fig11b": 1282, "pnmf": 571, "hcv": 326}

#: prints the child's own peak RSS in KB.  ``VmHWM`` belongs to the
#: address space ``exec`` created; ``ru_maxrss`` would also count the
#: peak of the pytest process that forked the child.
_PEAK_CHILD = """
import sys
from repro.harness.__main__ import main
code = main([sys.argv[1]])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
@pytest.mark.parametrize("name", list(PEAK_RSS_MB))
def test_peak_rss_within_ceiling(name):
    """Real memory, not the simulated ledgers: the experiment, alone in
    its own process, peaks at most its :data:`PEAK_RSS_MB` entry."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _PEAK_CHILD, name], env=env,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    peak_mb = int(proc.stdout.split()[-1]) / 1024
    assert peak_mb <= PEAK_RSS_MB[name], f"{name} peaked at {peak_mb:.0f} MB"
