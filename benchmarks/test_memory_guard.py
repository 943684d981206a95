"""Memory-refactor guard: Fig. 12 stats byte-identical to the baseline.

The arbitration substrate (``repro.memory``) is a pure refactor under
the default Cost&Size policy: every reservation, eviction, spill, and
restore must happen at the same point with the same victim as before.
This guard re-runs the two memory-bound experiments — Fig. 12(a)
(driver cache sizes) and Fig. 12(b) (GPU eviction under pressure) —
and compares every simulated duration (exact float ``repr``) and every
pre-refactor counter against the recorded baseline in
``baselines/fig12_counters.json``.

Counters introduced by the substrate itself (the ``memory/``
namespace) are additive and intentionally ignored: the guard asserts
the old behaviour is preserved, not that no new observability exists.

One gate is on the process itself: the ``hcv`` experiment's peak
resident memory stays under a ceiling.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.harness import runner

BASELINE = pathlib.Path(__file__).parent / "baselines" / \
    "fig12_counters.json"


def snap(experiment) -> dict:
    """Reduce an ExperimentResult grid to comparable scalars."""
    out: dict = {}
    for x, cells in experiment.grid.items():
        out[str(x)] = {
            label: {
                "elapsed": repr(float(result.elapsed)),
                "counters": {k: v for k, v in sorted(result.counters.items())},
            }
            for label, result in cells.items()
        }
    return out


def compare(recorded: dict, current: dict, experiment: str) -> list[str]:
    """Every recorded cell must match: elapsed exactly, and every
    counter present in the baseline unchanged."""
    mismatches = []
    for x, row in recorded.items():
        for label, cell in row.items():
            got = current[x][label]
            if got["elapsed"] != cell["elapsed"]:
                mismatches.append(
                    f"{experiment}[{x}][{label}].elapsed: "
                    f"{cell['elapsed']} -> {got['elapsed']}"
                )
            for counter, expected in cell["counters"].items():
                actual = got["counters"].get(counter)
                if actual != expected:
                    mismatches.append(
                        f"{experiment}[{x}][{label}].{counter}: "
                        f"{expected} -> {actual}"
                    )
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


#: process-memory ceiling of ``python -m repro.harness hcv`` (MB of peak
#: RSS).  Spark row slices and ``rbind`` of a driver matrix are views of
#: it, which took the peak from 2,272 MB to 1,040 MB (Linux x86-64,
#: Python 3.11, numpy 2.4).
HCV_PEAK_RSS_MB = 1400

_PEAK_CHILD = """
import resource, sys
from repro.harness.__main__ import main
code = main(["hcv"])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is read as KB, its Linux unit")
def test_hcv_peak_rss_within_ceiling():
    """Real memory, not the simulated ledgers: the ``hcv`` experiment,
    alone in its own process, peaks at most :data:`HCV_PEAK_RSS_MB`."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _PEAK_CHILD], env=env,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    peak_mb = int(proc.stdout.split()[-1]) / 1024
    assert peak_mb <= HCV_PEAK_RSS_MB, f"hcv peaked at {peak_mb:.0f} MB"
