"""Static analyzer: rules REP004-REP008, suppression, formats, CLI."""

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis.phasecheck import (
    DEFAULT_ROOT,
    RULES,
    Finding,
    format_json,
    format_sarif,
    run_analyze,
    summarize_findings,
)
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
SRC_ROOT = DEFAULT_ROOT


def triples(findings):
    return [(f.path, f.line, f.code) for f in findings]


def codes_for(findings, relpath):
    return [f.code for f in findings if f.path == relpath]


@pytest.fixture(scope="module")
def fixture_findings():
    return run_analyze(FIXTURES)


class TestFixtureTree:
    """Pinned true-positive / true-negative matrix over the fixture tree."""

    def test_rep004_raw_write_in_phase(self, fixture_findings):
        hits = [f for f in fixture_findings if f.code == "REP004"]
        assert [(f.path, f.line) for f in hits] == [
            ("distributed/engine_raw.py", 9),
            ("distributed/engine_raw.py", 9),
        ]
        messages = " ".join(f.message for f in hits)
        assert "visited" in messages

    def test_rep004_commit_decorator_is_clean(self, fixture_findings):
        assert codes_for(fixture_findings, "distributed/engine_committed.py") == []

    def test_rep005_missing_begin_phase(self, fixture_findings):
        assert triples([f for f in fixture_findings if f.code == "REP005"]) == [
            ("core/engine_badloop.py", 5, "REP005"),
        ]
        assert codes_for(fixture_findings, "core/engine_okloop.py") == []

    def test_rep006_unsynced_bitset_mirror(self, fixture_findings):
        # Raw writes to a ForestState's visited outside mark_visited/
        # clear_visited are flagged; another class's own visited is not.
        assert triples([f for f in fixture_findings if f.code == "REP006"]) == [
            ("core/mirror_state.py", 14, "REP006"),
            ("core/mirror_state.py", 18, "REP006"),
        ]

    def test_rep008_bare_except(self, fixture_findings):
        assert [
            (f.path, f.line) for f in fixture_findings if f.code == "REP008"
        ] == [("core/bare_except.py", 7), ("core/bare_except.py", 14)]

    def test_rep007_unused_and_unknown_suppressions(self, fixture_findings):
        assert [
            (f.path, f.line) for f in fixture_findings if f.code == "REP007"
        ] == [("util/stale_suppression.py", 3), ("util/stale_suppression.py", 4)]

    def test_lint_rules_surface_through_analyze(self, fixture_findings):
        assert codes_for(fixture_findings, "core/bad_item_program.py") == [
            "REP001",
            "REP001",
        ]
        assert codes_for(fixture_findings, "graph/bad_stdlib_random.py") == ["REP002"]
        assert codes_for(fixture_findings, "graph/bad_unseeded_rng.py") == [
            "REP002",
            "REP002",
        ]
        assert codes_for(fixture_findings, "parallel/cost_model.py") == [
            "REP003",
            "REP003",
        ]

    def test_true_negative_fixtures_stay_clean(self, fixture_findings):
        for clean in (
            "core/clean_item_program.py",
            "core/suppressed_item_program.py",
            "util/rng.py",
        ):
            assert codes_for(fixture_findings, clean) == []

    def test_findings_are_sorted(self, fixture_findings):
        keys = [(f.path, f.line, f.col, f.code) for f in fixture_findings]
        assert keys == sorted(keys)


class TestSelectIgnore:
    def test_select_narrows_to_one_rule(self):
        findings = run_analyze(FIXTURES, select=["REP008"])
        assert {f.code for f in findings} == {"REP008"}

    def test_select_by_name(self):
        findings = run_analyze(FIXTURES, select=["bare-except-in-engine"])
        assert {f.code for f in findings} == {"REP008"}

    def test_ignore_drops_rule(self):
        findings = run_analyze(FIXTURES, ignore=["REP004", "REP007"])
        assert "REP004" not in {f.code for f in findings}
        assert "REP007" not in {f.code for f in findings}

    def test_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="REP999"):
            run_analyze(FIXTURES, select=["REP999"])

    def test_suppression_for_ignored_rule_is_not_stale(self, tmp_path):
        # An allow-comment for a rule outside the active set must not
        # trip REP007 -- the rule never ran, so "unused" is unknowable.
        mod = tmp_path / "util" / "m.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            "import numpy as np\n"
            "values = np.random.rand(4)  # lint: allow-global-rng\n"
        )
        assert run_analyze(tmp_path, ignore=["REP002"]) == []


class TestRealTree:
    def test_shipped_tree_is_clean(self):
        assert run_analyze(SRC_ROOT) == []

    def _mutated_copy(self, tmp_path, mutations):
        """Copy the real sources into tmp and apply (relpath, old, new) edits."""
        for rel in (
            "distributed/engine.py",
            "distributed/commit.py",
            "core/forest.py",
            "core/kernels.py",
            "core/engine_loop.py",
        ):
            dest = tmp_path / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(SRC_ROOT / rel, dest)
        for rel, old, new in mutations:
            path = tmp_path / rel
            text = path.read_text()
            assert old in text, f"mutation anchor missing from {rel}: {old!r}"
            path.write_text(text.replace(old, new))
        return run_analyze(tmp_path)

    def test_unmutated_copy_is_clean(self, tmp_path):
        assert self._mutated_copy(tmp_path, []) == []

    def test_regression_guard_raw_claim_write(self, tmp_path):
        findings = self._mutated_copy(
            tmp_path,
            [
                (
                    "distributed/engine.py",
                    "commit_claims(self.visited, self.parent, self.root_y, winners, win_x, roots)",
                    "self.visited[winners] = 1\n"
                    "        self.parent[winners] = win_x\n"
                    "        self.root_y[winners] = roots",
                )
            ],
        )
        assert ("distributed/engine.py", "REP004") in {(f.path, f.code) for f in findings}

    def test_regression_guard_shared_loop_missing_begin_phase(self, tmp_path):
        # Every engine, the distributed ones included, runs its phases
        # through core/engine_loop.py, so this one loop carries REP005 for
        # all of them.
        findings = self._mutated_copy(
            tmp_path,
            [
                (
                    "core/engine_loop.py",
                    "options.begin_phase(counters.phases)",
                    "pass",
                )
            ],
        )
        assert ("core/engine_loop.py", "REP005") in {(f.path, f.code) for f in findings}

    def test_regression_guard_dropped_bitset_mirror(self, tmp_path):
        # A kernel claiming Y with a raw store instead of mark_visited
        # would leave num_unvisited_y stale and could end a phase early.
        findings = self._mutated_copy(
            tmp_path,
            [
                (
                    "core/kernels.py",
                    "state.mark_visited(winners)",
                    "state.visited[winners] = 1",
                )
            ],
        )
        assert ("core/kernels.py", "REP006") in {(f.path, f.code) for f in findings}


class TestSuppression:
    def test_statement_first_line_suppresses_multiline_violation(self, tmp_path):
        mod = tmp_path / "graph" / "m.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            "import numpy as np\n"
            "values = (  # lint: allow-global-rng\n"
            "    np.random.rand(4)\n"
            ")\n"
        )
        assert run_analyze(tmp_path) == []

    def test_violation_line_suppression_still_works(self, tmp_path):
        mod = tmp_path / "graph" / "m.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            "import numpy as np\n"
            "values = np.random.rand(4)  # lint: allow-global-rng\n"
        )
        assert run_analyze(tmp_path) == []

    def test_phase_rule_suppressible(self, tmp_path):
        mod = tmp_path / "core" / "engine_loop.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            "def run(counters, step):\n"
            "    while True:  # lint: allow-missing-deadline-check\n"
            "        counters.phases += 1\n"
            "        if not step():\n"
            "            break\n"
        )
        assert run_analyze(tmp_path) == []


class TestBaseline:
    """Code scanning's baseline: it matches a SARIF result to earlier
    reports by the finding's fingerprint."""

    def test_fingerprint_is_line_independent(self):
        a = Finding(path="p.py", line=3, col=0, code="REP004", name="n", message="m")
        b = Finding(path="p.py", line=99, col=4, code="REP004", name="n", message="m")
        assert a.fingerprint == b.fingerprint
        c = Finding(path="p.py", line=3, col=0, code="REP005", name="n", message="m")
        assert a.fingerprint != c.fingerprint


class TestFormats:
    def test_rule_catalog_covers_all_codes(self):
        codes = [rule.code for rule in RULES]
        assert codes == [f"REP{i:03d}" for i in range(1, 11)]

    def test_json_format(self, fixture_findings):
        payload = json.loads(format_json(fixture_findings, str(FIXTURES)))
        assert len(payload["findings"]) == len(fixture_findings)
        assert payload["summary"] == summarize_findings(fixture_findings)
        first = payload["findings"][0]
        assert {"path", "line", "col", "rule", "name", "message", "fingerprint"} <= set(
            first
        )

    def test_sarif_format(self, fixture_findings):
        sarif = json.loads(format_sarif(fixture_findings))
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == [f"REP{i:03d}" for i in range(1, 11)]
        assert len(run["results"]) == len(fixture_findings)
        result = run["results"][0]
        assert result["partialFingerprints"]["reproAnalyze/v1"]
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uriBaseId"] == "SRCROOT"
        assert loc["region"]["startColumn"] >= 1

    def test_summaries(self, fixture_findings):
        assert summarize_findings([]) == "analyze clean: 0 findings"
        line = summarize_findings(fixture_findings)
        assert line.startswith(f"{len(fixture_findings)} findings (")
        assert "REP004 x2" in line


class TestCli:
    def test_analyze_fixtures_exit_one(self, capsys):
        assert main(["analyze", str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert "REP004 (raw-write-in-phase)" in out
        assert "distributed/engine_raw.py:9" in out

    def test_analyze_real_tree_exit_zero(self, capsys):
        assert main(["analyze", str(SRC_ROOT)]) == 0
        assert "analyze clean" in capsys.readouterr().out

    def test_analyze_select(self, capsys):
        assert main(["analyze", str(FIXTURES), "--select", "REP008"]) == 1
        out = capsys.readouterr().out
        assert "REP008" in out
        assert "REP004" not in out

    def test_analyze_unknown_select_exit_two(self, capsys):
        assert main(["analyze", str(FIXTURES), "--select", "REP999"]) == 2
        assert "REP999" in capsys.readouterr().err

    def test_analyze_sarif_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.sarif"
        code = main(
            ["analyze", str(FIXTURES), "--format", "sarif", "--output", str(out_file)]
        )
        assert code == 1
        sarif = json.loads(out_file.read_text())
        assert sarif["runs"][0]["tool"]["driver"]["name"] == "repro-match-analyze"
        assert "findings" in capsys.readouterr().err
