"""The AST rules (REP001-REP003, REP009, REP010) through the analyzer:
fixture violations trip, the real tree is clean."""

from pathlib import Path

import pytest

from repro.analysis.phasecheck import (
    DEFAULT_ROOT,
    RULES,
    run_analyze,
    summarize_findings,
)
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
AST_RULES = ["REP001", "REP002", "REP003", "REP009", "REP010"]


def codes(findings):
    return [f.code for f in findings]


class TestFixtures:
    @pytest.fixture(scope="class")
    def violations(self):
        return run_analyze(FIXTURES, select=AST_RULES)

    def test_raw_shared_mutation_trips_rep001(self, violations):
        hits = [v for v in violations if "bad_item_program" in v.path]
        assert codes(hits) == ["REP001", "REP001"]
        assert all("item program" in v.message for v in hits)

    def test_non_generator_subscript_not_flagged(self, violations):
        hits = [v for v in violations if "bad_item_program" in v.path]
        # helper_without_yield assigns arr[0] on line 13; must not be flagged.
        assert all(v.line < 13 for v in hits)

    def test_clean_item_program_passes(self, violations):
        assert not any("clean_item_program" in v.path for v in violations)

    def test_allow_comment_suppresses(self, violations):
        assert not any("suppressed_item_program" in v.path for v in violations)

    def test_unseeded_numpy_rng_trips_rep002(self, violations):
        hits = [v for v in violations if "bad_unseeded_rng" in v.path]
        assert codes(hits) == ["REP002", "REP002"]

    def test_stdlib_random_trips_rep002(self, violations):
        hits = [v for v in violations if "bad_stdlib_random" in v.path]
        assert codes(hits) == ["REP002"]

    def test_util_rng_exclusion(self, violations):
        assert not any("util/rng.py" in v.path for v in violations)

    def test_wallclock_in_cost_model_trips_rep003(self, violations):
        hits = [v for v in violations if "cost_model" in v.path]
        assert codes(hits) == ["REP003", "REP003"]
        assert "host clock" in hits[0].message

    def test_engine_import_in_checker_trips_rep009(self, violations):
        hits = [v for v in violations if "matching/verify" in v.path]
        assert codes(hits) == ["REP009", "REP009", "REP009"]
        assert [v.line for v in hits] == [3, 4, 9]
        assert "repro.distributed" in hits[2].message

    def test_plain_unique_trips_rep010(self, violations):
        hits = [v for v in violations if "hashed_unique" in v.path]
        assert codes(hits) == ["REP010", "REP010"]
        assert [v.line for v in hits] == [8, 12]
        assert "repro.graph.csr.sorted_unique" in hits[0].message
        assert hits[1].message.startswith("numpy.unique()")

    def test_unique_with_extra_outputs_not_flagged(self, violations):
        # compact() asks np.unique for inverse/index/counts/axis (lines 17-20)
        hits = [v for v in violations if "hashed_unique" in v.path]
        assert all(v.line < 17 for v in hits)


class TestRealTree:
    def test_shipped_package_is_clean(self):
        violations = run_analyze(DEFAULT_ROOT, select=AST_RULES)
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_rules_cover_engine_file(self):
        """REP001 really applies to the interleaved engine's module."""
        rep001 = next(r for r in RULES if r.code == "REP001")
        assert rep001.applies_to("core/engine_interleaved.py")
        assert rep001.applies_to("parallel/simulator.py")
        assert not rep001.applies_to("bench/runner.py")

    def test_engine_regression_guard(self, tmp_path):
        """A later change reintroducing a raw write in the engine is caught."""
        bad = tmp_path / "core"
        bad.mkdir()
        source = (DEFAULT_ROOT / "core" / "engine_interleaved.py").read_text()
        source = source.replace("sh_parent.store(y, x)", "parent[y] = x")
        assert "parent[y] = x" in source
        (bad / "engine_interleaved.py").write_text(source)
        # The effect rules see the raw write too (REP004); REP001 is the
        # AST rule under test.
        assert "REP001" in codes(run_analyze(tmp_path, select=["REP001"]))

    def test_checker_regression_guard(self, tmp_path):
        """A later change importing engine code into the checker is caught."""
        bad = tmp_path / "matching"
        bad.mkdir()
        source = (DEFAULT_ROOT / "matching" / "verify.py").read_text()
        anchor = "from repro.errors import VerificationError\n"
        assert anchor in source
        source = source.replace(anchor, anchor + "from repro.core.forest import ForestState\n")
        (bad / "verify.py").write_text(source)
        assert codes(run_analyze(tmp_path)) == ["REP009"]

    def test_unique_regression_guard(self, tmp_path):
        """A later change putting a plain np.unique back in a build is caught."""
        bad = tmp_path / "graph"
        bad.mkdir()
        source = (DEFAULT_ROOT / "graph" / "generators.py").read_text()
        call = "keys = sorted_unique(np.concatenate([keys, extra]))"
        assert call in source
        source = source.replace(call, "keys = np.unique(np.concatenate([keys, extra]))")
        (bad / "generators.py").write_text(source)
        assert codes(run_analyze(tmp_path, select=["REP010"])) == ["REP010"]

    def test_syntax_error_reported_not_raised(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        findings = run_analyze(tmp_path, select=["REP008"])
        assert [(f.path, f.code) for f in findings] == [("broken.py", "REP000")]


class TestCli:
    def test_lint_fixture_tree_exits_nonzero(self, capsys):
        assert main(["analyze", str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert all(code in out for code in AST_RULES)

    def test_lint_shipped_tree_exits_zero(self, capsys):
        assert main(["analyze"]) == 0
        assert "analyze clean" in capsys.readouterr().out

    def test_lint_select_narrows_rules(self, capsys):
        assert main(["analyze", str(FIXTURES), "--select", "REP002"]) == 1
        out = capsys.readouterr().out
        assert "REP002" in out
        assert "REP001" not in out and "REP003" not in out

    def test_lint_ignore_drops_rule(self, capsys):
        argv = ["analyze", str(FIXTURES), "--ignore", "REP001", "--ignore", "REP002"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "REP003" in out
        assert "REP001" not in out and "REP002" not in out

    def test_lint_unknown_rule_exits_two(self, capsys):
        assert main(["analyze", str(FIXTURES), "--select", "REP999"]) == 2
        assert "REP999" in capsys.readouterr().err

    def test_lint_summary_line_on_stderr(self, capsys):
        assert main(["analyze", str(FIXTURES), "--format", "json"]) == 1
        err = capsys.readouterr().err
        assert "findings (" in err


class TestFilterRules:
    def test_select_by_code_and_name(self):
        for key in ("REP002", "global-rng"):
            assert set(codes(run_analyze(FIXTURES, select=[key]))) == {"REP002"}

    def test_ignore(self):
        kept = run_analyze(FIXTURES, ignore=["REP001"])
        assert "REP001" not in codes(kept)

    def test_unknown_key_raises(self):
        with pytest.raises(ValueError, match="nope"):
            run_analyze(FIXTURES, select=["nope"])

    def test_summarize_counts_by_code(self):
        violations = run_analyze(FIXTURES, select=AST_RULES)
        line = summarize_findings(violations)
        assert line.startswith(f"{len(violations)} findings (")
        assert "REP002 x3" in line
