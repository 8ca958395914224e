"""The ``python -m repro run`` CLI paths: observed run and workload."""

import json

import pytest

from repro.__main__ import main, observed_run


class TestObservedRun:
    def test_writes_all_exports(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        events = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.txt"
        code = observed_run(
            "SELECT * FROM A JOIN B ON A.unique1 = B.unique1",
            str(trace), str(events), str(metrics), explain=True, threads=8)
        assert code == 0
        out = capsys.readouterr().out
        assert "schedule explanation:" in out
        assert "observed execution:" in out
        document = json.loads(trace.read_text())
        assert document["traceEvents"]
        lines = events.read_text().splitlines()
        assert all(json.loads(line) for line in lines)
        assert "observed execution:" in metrics.read_text()

    def test_main_routes_observability_flags(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        code = main(["run", "--events-out", str(events), "--threads", "8"])
        assert code == 0
        assert events.exists()

    def test_explain_alone_runs_without_files(self, capsys):
        assert main(["run", "--explain", "--threads", "8"]) == 0
        assert "step 4" in capsys.readouterr().out


class TestWorkloadRun:
    def test_concurrent_prints_timeline_and_speedup(self, capsys):
        assert main(["run", "--concurrent", "2"]) == 0
        out = capsys.readouterr().out
        assert "timeline (virtual time):" in out
        assert "reason=admission" in out
        assert "concurrent makespan" in out

    def test_shared_prints_folding_gain(self, capsys):
        assert main(["run", "--concurrent", "2", "--shared"]) == 0
        out = capsys.readouterr().out
        assert "shared-work folding ON" in out
        assert "folding gains" in out

    def test_adaptive_policy_prints_decision_log(self, capsys):
        assert main(["run", "--concurrent", "2", "--policy",
                     "adaptive"]) == 0
        out = capsys.readouterr().out
        assert "adaptive scheduling ON" in out
        # The decision log's "mid-flight" steps, or the explicit
        # "no mid-flight decisions" line on a healthy run.
        assert "mid-flight" in out

    def test_policy_needs_concurrent(self):
        with pytest.raises(SystemExit):
            main(["run", "--policy", "adaptive"])

    def test_top_level_workload_flags_are_gone(self):
        with pytest.raises(SystemExit):
            main(["--concurrent", "2"])
