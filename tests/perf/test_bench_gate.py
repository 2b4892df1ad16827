"""The bench perf gate: stage-profile grouping, the regression check, and
the ``REPRO_STAGE_JSON`` dump hook the profiler rides on."""

import json

import pytest

from repro.cli import main
from repro.perf.bench import (_group_stages, check_regression,
                              profile_coverage)
from repro.perf.instrument import reset_stage_timings


def _baseline(tmp_path, benches):
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps({"schema": 1, "benches": benches}))
    return path


class TestCheckRegression:
    def test_within_tolerance_passes(self, tmp_path):
        base = _baseline(tmp_path, {"observations": {"cold_s": 10.0}})
        results = {"observations": {"cold_s": 12.0}}
        assert check_regression(results, base, tolerance=0.25) == []

    def test_regression_flagged(self, tmp_path):
        base = _baseline(tmp_path, {"observations": {"cold_s": 10.0}})
        results = {"observations": {"cold_s": 13.0}}
        issues = check_regression(results, base, tolerance=0.25)
        assert len(issues) == 1
        assert "observations" in issues[0]
        assert "12.5s" in issues[0]

    def test_boundary_is_inclusive(self, tmp_path):
        base = _baseline(tmp_path, {"b": {"cold_s": 8.0}})
        assert check_regression({"b": {"cold_s": 10.0}}, base,
                                tolerance=0.25) == []

    def test_new_bench_without_baseline_entry_passes(self, tmp_path):
        base = _baseline(tmp_path, {"observations": {"cold_s": 10.0}})
        results = {"brand_new": {"cold_s": 99.0}}
        assert check_regression(results, base) == []

    def test_missing_baseline_file_is_an_issue(self, tmp_path):
        issues = check_regression({"observations": {"cold_s": 1.0}},
                                  tmp_path / "nope.json")
        assert len(issues) == 1
        assert "not found" in issues[0]

    def test_improvement_passes(self, tmp_path):
        base = _baseline(tmp_path, {"observations": {"cold_s": 10.0}})
        assert check_regression({"observations": {"cold_s": 2.0}},
                                base) == []


class TestGroupStages:
    def test_groups_by_leaf_prefix(self):
        stages = {
            "plan-build:gemv": {"seconds": 1.0, "calls": 3},
            "plan-build:spmv": {"seconds": 0.5, "calls": 2},
            "sweep-execute:gemv": {"seconds": 2.0, "calls": 3},
            "model-resolve": {"seconds": 0.25, "calls": 40},
            # nested: the leaf name decides the group, not the path head
            "analysis.verify_all/datasets.generate_matrix":
                {"seconds": 4.0, "self_seconds": 4.0, "calls": 1},
            "unnamed-thing": {"seconds": 0.5, "calls": 1},
        }
        groups = _group_stages(stages)
        assert groups == {"plan-build": 1.5, "sweep-execute": 2.0,
                          "model-resolve": 0.25, "dataset-gen": 4.0,
                          "misc": 0.5}

    def test_stats_nodes_and_misses_form_their_own_group(self):
        node = "harness.run_performance/graph/analytic-stats"
        stages = {
            node: {"seconds": 3.0, "self_seconds": 0.5, "calls": 50},
            f"{node}/kernels.analytic_stats":
                {"seconds": 2.5, "self_seconds": 2.0, "calls": 190},
            f"{node}/kernels.analytic_stats/model-resolve":
                {"seconds": 0.5, "calls": 10},
        }
        assert _group_stages(stages) == {"analytic-stats": 2.5,
                                         "model-resolve": 0.5}

    def test_self_seconds_preferred_and_other_is_wall_remainder(self):
        stages = {
            "analysis.verify_all":
                {"seconds": 10.0, "self_seconds": 1.0, "calls": 1},
            "analysis.verify_all/analysis.accuracy_table":
                {"seconds": 9.0, "self_seconds": 9.0, "calls": 9},
        }
        groups = _group_stages(stages, wall=12.0)
        # self-seconds partition: 1 + 9 attributed, 2 unattributed
        assert groups["observation-audit"] == pytest.approx(1.0)
        assert groups["accuracy-audit"] == pytest.approx(9.0)
        assert groups["other"] == pytest.approx(2.0)

    def test_coverage_ratio(self):
        stages = {
            "a": {"seconds": 6.0, "self_seconds": 4.0, "calls": 1},
            "a/b": {"seconds": 2.0, "self_seconds": 2.0, "calls": 1},
        }
        assert profile_coverage(stages, 8.0) == pytest.approx(0.75)
        assert profile_coverage(stages, 0.0) == 0.0
        # attributed can overshoot wall by timer noise; clamp to 1
        assert profile_coverage(stages, 5.0) == 1.0

    def test_empty(self):
        assert _group_stages({}, wall=1.0) == {"other": 1.0}


class TestBudgets:
    def _baseline(self, tmp_path, budgets):
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps({
            "schema": 2,
            "benches": {"observations": {"cold_s": 10.0}},
            "budgets": budgets}))
        return path

    def test_cold_budget_enforced(self, tmp_path):
        base = self._baseline(
            tmp_path, {"observations": {"cold_max_s": 8.0}})
        issues = check_regression(
            {"observations": {"cold_s": 9.0, "warm_s": 1.0}}, base)
        assert any("budget" in i for i in issues)

    def test_warm_budget_enforced(self, tmp_path):
        base = self._baseline(
            tmp_path, {"observations": {"warm_max_s": 1.5}})
        issues = check_regression(
            {"observations": {"cold_s": 5.0, "warm_s": 2.0}}, base)
        assert any("warm" in i and "budget" in i for i in issues)

    def test_coverage_floor_enforced_only_with_profile(self, tmp_path):
        base = self._baseline(
            tmp_path, {"observations": {"min_coverage": 0.9}})
        with_prof = {"observations": {
            "cold_s": 5.0, "warm_s": 1.0,
            "profile": {"coverage": 0.5}}}
        issues = check_regression(with_prof, base)
        assert any("coverage" in i for i in issues)
        # no profile attached -> the floor cannot be evaluated, passes
        without = {"observations": {"cold_s": 5.0, "warm_s": 1.0}}
        assert check_regression(without, base) == []

    def test_within_budgets_passes(self, tmp_path):
        base = self._baseline(
            tmp_path, {"observations": {"cold_max_s": 8.0,
                                        "warm_max_s": 1.5,
                                        "min_coverage": 0.9}})
        results = {"observations": {
            "cold_s": 7.0, "warm_s": 1.0,
            "profile": {"coverage": 0.95}}}
        assert check_regression(results, base) == []


class TestWriteBenchJson:
    def test_budgets_survive_rewrite(self, tmp_path):
        from repro.perf.bench import write_bench_json
        out = tmp_path / "BENCH_perf.json"
        budgets = {"observations": {"cold_max_s": 8.0}}
        write_bench_json(out, {"observations": {"cold_s": 5.0}},
                         budgets=budgets)
        # a later refresh without explicit budgets keeps the block
        write_bench_json(out, {"observations": {"cold_s": 4.0}})
        doc = json.loads(out.read_text())
        assert doc["budgets"] == budgets
        assert doc["benches"]["observations"]["cold_s"] == 4.0


class TestStageJsonDump:
    def test_cli_dumps_stage_registry(self, tmp_path, monkeypatch, capsys,
                                      isolated_cache):
        # empty cache: the accuracy audit actually executes the kernels,
        # so the launch-engine stages are recorded
        out = tmp_path / "stages.json"
        monkeypatch.setenv("REPRO_STAGE_JSON", str(out))
        reset_stage_timings()
        rc = main(["accuracy", "--workload", "gemv", "--gpu", "H200"])
        assert rc == 0
        payload = json.loads(out.read_text())
        stages = payload["stages"]
        leaves = {name.rsplit("/", 1)[-1] for name in stages}
        assert "model-resolve" in leaves
        assert any(leaf.startswith("sweep-execute:gemv")
                   for leaf in leaves)
        # every stage nests under the command root
        assert all(name == "cli.startup"
                   or name.startswith("cli.accuracy")
                   for name in stages)
        for rec in stages.values():
            assert rec["seconds"] >= 0.0
            assert 0.0 <= rec["self_seconds"] <= rec["seconds"] + 1e-9
            assert rec["calls"] >= 1

    def test_no_dump_without_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_STAGE_JSON", raising=False)
        rc = main(["quadrants", "--workload", "gemv"])
        assert rc == 0
        assert not (tmp_path / "stages.json").exists()


class TestBenchCliFlags:
    def test_parser_accepts_gate_flags(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["bench", "--bench", "run_performance", "--profile", "--check",
             "--tolerance", "0.3", "--baseline", "b.json"])
        assert args.profile and args.check
        assert args.tolerance == pytest.approx(0.3)
        assert args.baseline == "b.json"

    def test_gate_defaults(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(["bench"])
        assert args.tolerance == pytest.approx(0.25)
        assert args.baseline == "BENCH_perf.json"
        assert not args.profile and not args.check


class TestBudgetDiagnostics:
    def _baseline(self, tmp_path, budgets):
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps({
            "schema": 2,
            "benches": {"observations": {"cold_s": 10.0}},
            "budgets": budgets}))
        return path

    def test_messages_carry_budget_measured_delta(self, tmp_path):
        base = self._baseline(
            tmp_path, {"observations": {"cold_max_s": 8.0,
                                        "warm_max_s": 1.5}})
        issues = check_regression(
            {"observations": {"cold_s": 9.5, "warm_s": 2.0}}, base)
        cold = next(i for i in issues if "cold" in i)
        assert "9.5s" in cold and "8.0s" in cold and "+1.5s" in cold
        warm = next(i for i in issues if "warm" in i)
        assert "2.0s" in warm and "1.5s" in warm and "+0.5s" in warm

    def test_missing_budgets_flagged_when_required(self, tmp_path):
        base = self._baseline(tmp_path, {})
        results = {"observations": {"cold_s": 5.0}}
        # the library default stays permissive (budget-less baselines)
        assert check_regression(results, base) == []
        issues = check_regression(results, base, require_budgets=True)
        assert len(issues) == 1
        assert "no budgets defined" in issues[0]
        assert "budgets.observations" in issues[0]

    def test_required_budgets_satisfied_by_any_entry(self, tmp_path):
        base = self._baseline(
            tmp_path, {"observations": {"cold_max_s": 30.0}})
        assert check_regression({"observations": {"cold_s": 5.0}}, base,
                                require_budgets=True) == []


class TestOverlapBudget:
    def _baseline(self, tmp_path, min_overlap=1.05):
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps({
            "schema": 2,
            "benches": {"observations": {"cold_s": 10.0}},
            "budgets": {"observations":
                        {"min_overlap_ratio": min_overlap}}}))
        return path

    def _result(self, overlap=None, workers=None):
        r = {"cold_s": 5.0, "warm_s": 0.5}
        if overlap is not None:
            r["overlap_ratio"] = overlap
        if workers is not None:
            r["graph_workers"] = workers
        return {"observations": r}

    def test_low_overlap_flagged_with_multiple_workers(self, tmp_path):
        base = self._baseline(tmp_path)
        issues = check_regression(self._result(overlap=1.0, workers=2),
                                  base)
        assert len(issues) == 1
        assert "overlap 1.00x" in issues[0]
        assert "1.05x floor" in issues[0]
        assert "-0.05" in issues[0] and "2 workers" in issues[0]

    def test_serial_run_cannot_fail_the_overlap_floor(self, tmp_path):
        """A one-worker schedule cannot overlap; the floor only binds
        multi-worker runs."""
        base = self._baseline(tmp_path)
        assert check_regression(self._result(overlap=1.0, workers=1),
                                base) == []

    def test_run_without_graph_meta_passes(self, tmp_path):
        # e.g. a run whose graphs were all empty (every verdict cached)
        # records no overlap at all
        base = self._baseline(tmp_path)
        assert check_regression(self._result(), base) == []

    def test_healthy_overlap_passes(self, tmp_path):
        base = self._baseline(tmp_path)
        assert check_regression(self._result(overlap=1.8, workers=2),
                                base) == []
