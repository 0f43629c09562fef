"""Custom AST lint pass: fixture violations trip, the real tree is clean."""

from pathlib import Path

import pytest

from repro.analysis.lint import (
    DEFAULT_ROOT,
    RULES,
    filter_rules,
    lint_file,
    run_lint,
    summarize,
)
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def codes(violations):
    return [v.rule.split(" ")[0] for v in violations]


class TestFixtures:
    @pytest.fixture(scope="class")
    def violations(self):
        return run_lint(FIXTURES)

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


class TestRealTree:
    def test_shipped_package_is_clean(self):
        violations = run_lint(DEFAULT_ROOT)
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_rules_cover_engine_file(self):
        """REP001 really applies to the interleaved engine's module."""
        rep001 = next(r for r in RULES if r.code == "REP001")
        assert rep001.applies_to("core/engine_interleaved.py")
        assert rep001.applies_to("parallel/simulator.py")
        assert not rep001.applies_to("bench/runner.py")

    def test_engine_regression_guard(self, tmp_path):
        """A future PR reintroducing a raw write in the engine is caught."""
        bad = tmp_path / "core"
        bad.mkdir()
        source = (DEFAULT_ROOT / "core" / "engine_interleaved.py").read_text()
        source = source.replace("sh_parent.store(y, x)", "parent[y] = x")
        assert "parent[y] = x" in source
        (bad / "engine_interleaved.py").write_text(source)
        violations = run_lint(tmp_path)
        assert "REP001" in codes(violations)

    def test_checker_regression_guard(self, tmp_path):
        """A future PR importing engine code into the checker is caught."""
        bad = tmp_path / "matching"
        bad.mkdir()
        source = (DEFAULT_ROOT / "matching" / "verify.py").read_text()
        anchor = "from repro.errors import VerificationError\n"
        assert anchor in source
        source = source.replace(anchor, anchor + "from repro.core.forest import ForestState\n")
        (bad / "verify.py").write_text(source)
        assert codes(run_lint(tmp_path)) == ["REP009"]

    def test_syntax_error_reported_not_raised(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        violations = lint_file(broken, "broken.py")
        assert codes(violations) == ["REP000"]


class TestCli:
    def test_lint_fixture_tree_exits_nonzero(self, capsys):
        assert main(["lint", str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out and "REP002" in out and "REP003" in out

    def test_lint_shipped_tree_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        assert "lint clean" in capsys.readouterr().out

    def test_lint_select_narrows_rules(self, capsys):
        assert main(["lint", str(FIXTURES), "--select", "REP002"]) == 1
        out = capsys.readouterr().out
        assert "REP002" in out
        assert "REP001" not in out and "REP003" not in out

    def test_lint_ignore_drops_rule(self, capsys):
        assert main(["lint", str(FIXTURES), "--ignore", "REP001", "--ignore", "REP002"]) == 1
        out = capsys.readouterr().out
        assert "REP003" in out
        assert "REP001" not in out and "REP002" not in out

    def test_lint_unknown_rule_exits_two(self, capsys):
        assert main(["lint", str(FIXTURES), "--select", "REP999"]) == 2
        assert "REP999" in capsys.readouterr().err

    def test_lint_summary_line_on_stderr(self, capsys):
        assert main(["lint", str(FIXTURES)]) == 1
        err = capsys.readouterr().err
        assert "violations (" in err


class TestFilterRules:
    def test_select_by_code_and_name(self):
        assert [r.code for r in filter_rules(RULES, ["REP002"], None)] == ["REP002"]
        assert [r.code for r in filter_rules(RULES, ["global-rng"], None)] == ["REP002"]

    def test_ignore(self):
        kept = filter_rules(RULES, None, ["REP001"])
        assert "REP001" not in [r.code for r in kept]

    def test_unknown_key_raises(self):
        with pytest.raises(ValueError, match="nope"):
            filter_rules(RULES, ["nope"], None)

    def test_summarize_counts_by_code(self):
        violations = run_lint(FIXTURES)
        line = summarize(violations)
        assert line.startswith(f"{len(violations)} violations (")
        assert "REP002 x3" in line
