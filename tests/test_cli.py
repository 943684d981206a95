"""Tests for the harness CLI (`python -m repro.harness`)."""

import os
import subprocess
import sys

import pytest

from repro.harness.__main__ import EXPERIMENTS, main
from repro.obs import load_chrome_trace, validate_chrome_trace
from repro.obs.chrome import LANE_TIDS
from repro.obs.events import EV_INSTR, EV_PROBE, LANE_CP, LANE_SP

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES = sorted(name for name in os.listdir(os.path.join(REPO, "examples"))
                  if name.endswith(".py"))


def _run(*argv: str) -> str:
    """Run ``python ARGV`` from the repo root as a real subprocess (the
    way CI and the docs invoke it); returns stdout, asserts exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, *argv], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2c", "hcv", "tlvis", "table2"):
            assert name in out

    def test_every_benchmark_has_a_cli_entry(self):
        # one CLI entry per experiment of the DESIGN.md index
        expected = {
            "fig2c", "fig2d", "fig11a", "fig11b", "fig12a", "fig12b",
            "hcv", "pnmf", "hband", "clean", "hdrop", "en2de", "tlvis",
            "table2", "ablation-policies", "ablation-ordering",
        }
        assert expected <= set(EXPERIMENTS)

    def test_run_single_experiment(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Spark" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_policy_flags_override_every_region(self, capsys):
        assert main(["fig12b", "--policy", "lru", "--gpu-policy", "mrd",
                     "--spark-policy", "lrc"]) == 0
        assert ("[memory: eviction policy overrides {'policy': 'lru', "
                "'gpu': 'mrd', 'spark': 'lrc'}]") in capsys.readouterr().out


class TestObservabilityFlags:
    def test_trace_summary_without_trace(self, capsys):
        # regression: --trace-summary used to be silently ignored
        # unless --trace was also given
        assert main(["fig2c", "--trace-summary"]) == 0
        out = capsys.readouterr().out
        assert "=== trace summary ===" in out
        assert "[trace:" not in out  # no file export without --trace

    def test_trace_summary_with_trace(self, capsys, tmp_path):
        trace = str(tmp_path / "trace.json")
        assert main(["fig2c", "--trace", trace, "--trace-summary"]) == 0
        out = capsys.readouterr().out
        assert "=== trace summary ===" in out
        assert "[trace:" in out

    def test_gauge_samples_ride_on_the_trace(self, capsys, tmp_path):
        """Gauge samples come with ``--trace`` (counter tracks) and
        ``--trace-summary`` (sparkline digest); there is no third flag."""
        import json

        trace = str(tmp_path / "trace.json")
        assert main(["fig2c", "--trace", trace, "--trace-summary"]) == 0
        out = capsys.readouterr().out
        assert "-- gauges" in out and "memory/SP_CACHE/used" in out
        assert "ring buffer dropped" not in out
        with open(trace) as fh:
            doc = json.load(fh)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert {"memory", "cache", "spark"} <= {e["cat"] for e in counters}
        assert validate_chrome_trace(doc) == []
        with pytest.raises(SystemExit):
            main(["fig2c", "--metrics", str(tmp_path / "m.jsonl")])

    def test_explain_flag_prints_plans(self, capsys):
        assert main(["fig2c", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "=== explain" in out
        assert "-- HOP DAG (post-rewrite) --" in out
        assert "-- instruction stream (linearized) --" in out


class TestServerFlags:
    """``--server`` runs inside the same context as the experiments."""

    def test_observability_flags_apply_to_server(self, capsys, tmp_path):
        # regression: --server returned before any collector was
        # installed, silently ignoring --trace/--explain/...
        import json

        trace = str(tmp_path / "trace.json")
        assert main(["--server", "2", "--trace", trace, "--trace-summary",
                     "--explain", "--verify-ir"]) == 0
        out = capsys.readouterr().out
        assert "=== server report ===" in out
        assert "[trace:" in out and "=== trace summary ===" in out
        assert "-- gauges" in out and "=== explain" in out
        assert "[verify-ir:" in out
        with open(trace) as fh:
            doc = json.load(fh)
        stamped = [e for e in doc["traceEvents"]
                   if "request_id" in e.get("args", {})]
        assert stamped, "server spans must carry their request id"
        assert any(e["ph"] == "C" and e["name"].startswith("server/tenant/")
                   for e in stamped)

    @pytest.mark.parametrize("flags", [
        ["--faults", "cache_lost@6"], ["--policy", "lru"],
        ["--gpu-policy", "lrc"], ["--spark-policy", "mrd"],
    ], ids=lambda flags: flags[0])
    def test_experiment_only_flags_rejected_with_server(self, flags,
                                                        capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--server", "2", *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flags[0] in err and "--server" in err

    def test_server_mode_as_subprocess(self):
        out = _run("-m", "repro.harness", "--server", "3",
                   "--server-seed", "5")
        assert "=== server report ===" in out


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_runs(example):
    """Every ``examples/*.py`` runs to exit 0 as a real subprocess."""
    _run(os.path.join("examples", example))


class TestQuickstartTrace:
    """``examples/quickstart.py --trace`` end to end: what
    docs/OBSERVABILITY.md promises about the exported file."""

    def test_trace_file_is_valid_and_attributed(self, tmp_path):
        path = str(tmp_path / "trace.json")
        out = _run(os.path.join("examples", "quickstart.py"),
                   "--trace", path)
        assert "=== trace summary ===" in out
        doc = load_chrome_trace(path)
        assert validate_chrome_trace(doc) == []
        payload = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        # distinct backend lanes, instruction spans, and every cache
        # probe attributed to the instruction that issued it
        assert {LANE_TIDS[LANE_CP], LANE_TIDS[LANE_SP]} \
            <= {e["tid"] for e in payload}
        assert any(e["name"] == EV_INSTR for e in payload)
        probes = [e for e in payload if e["name"] == EV_PROBE]
        assert probes and all("instr" in e.get("args", {}) for e in probes)
        assert any(e["args"].get("hit") for e in probes)
