"""The benchmark gate: regressions fail, and so do vanished metrics."""

import json

from tools.compare_bench import compare, main


def write(path, report):
    path.write_text(json.dumps(report), encoding="utf-8")
    return str(path)


def run_gate(tmp_path, baseline, current):
    return main(
        [
            "--baseline",
            write(tmp_path / "baseline.json", baseline),
            "--current",
            write(tmp_path / "current.json", current),
        ]
    )


class TestCompareBench:
    def test_missing_gated_metric_fails_and_is_named(
        self, tmp_path, capsys
    ):
        baseline = {"cpu_count": 1, "hot_path_speedup": 12.0}
        current = {"cpu_count": 1}
        assert run_gate(tmp_path, baseline, current) == 1
        out = capsys.readouterr().out
        assert "MISSING hot_path_speedup" in out
        regressions, _ = compare(baseline, current, 0.25)
        assert regressions == ["hot_path_speedup"]

    def test_metric_absent_from_baseline_is_skipped(self, tmp_path, capsys):
        baseline = {"cpu_count": 1}
        current = {"cpu_count": 1, "hot_path_speedup": 12.0}
        assert run_gate(tmp_path, baseline, current) == 0
        out = capsys.readouterr().out
        assert "hot_path_speedup" not in out
        assert "no regressions" in out

    def test_min_cpu_skip_still_prints(self, tmp_path, capsys):
        # A collapse that would fail on a multi-core pair is skipped --
        # loudly -- when either side saw a single CPU.
        baseline = {"cpu_count": 1, "process_over_thread": 0.95}
        current = {"cpu_count": 1, "process_over_thread": 0.10}
        assert run_gate(tmp_path, baseline, current) == 0
        out = capsys.readouterr().out
        assert "skip process_over_thread: needs >= 2 CPUs" in out

    def test_regression_still_fails(self, tmp_path):
        baseline = {"cpu_count": 1, "hot_path_speedup": 12.0}
        current = {"cpu_count": 1, "hot_path_speedup": 6.0}
        assert run_gate(tmp_path, baseline, current) == 1
