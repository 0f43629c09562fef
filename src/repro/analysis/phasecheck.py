"""The static analyzer: one rule table (REP001–REP009) and one runner.

The MS-BFS-Graft engines share one correctness contract (the "phase
discipline"): work happens in barrier-synchronized phases, shared arrays
are claimed only through atomic first-writer-wins channels, every
``visited`` transition in ``core/`` keeps the forest's unvisited-Y
counters exact, and every phase-loop iteration passes through
``GraftOptions.begin_phase`` (which bundles ``Deadline.check``, the
telemetry phase span, and ``phase_hook``).
:data:`RULES` checks that contract statically. The AST checks of
:mod:`repro.analysis.lint` (REP001–REP003, REP009) and REP005/REP008
look at one module at a time; the rest read the interprocedural effect
summaries of :mod:`repro.analysis.effects`:

* **REP004 raw-write-in-phase** — inside a *phase body* (a generator item
  program under ``core/``/``parallel/``, or a phase closure in a
  distributed engine), no shared array may be both raw-written and read —
  that read/write pair is exactly the race window the atomic claim
  protocol exists to close — and the claim arrays (``visited`` /
  ``parent`` / ``root_y``) may only be written through CAS or a
  ``@superstep_commit`` helper in top-down/graft code. Effects reach
  through helpers: a phase body that calls a raw-writing helper is
  flagged even though no subscript assignment appears in its own text.
* **REP005 missing-deadline-check** — every engine phase loop (a
  ``while`` loop advancing a ``.phases`` counter in an engine module)
  must call ``begin_phase(...)``, so Deadline enforcement, the telemetry
  span, and ``phase_hook`` fire on every phase of every engine.
* **REP006 raw-visited-write** — in ``core/``, only
  ``ForestState.mark_visited``/``clear_visited`` raw-write a
  ForestState's ``visited`` array (``self.visited`` in its methods,
  ``state.visited`` elsewhere); everything else goes through them. They keep
  ``num_unvisited_y``, ``num_candidates`` and ``unvisited_deg`` exact,
  and the direction rule and the ``num_unvisited_y == 0`` phase exit read
  those counters, so a raw write that skips them can end a phase early.
* **REP007 unused-suppression** — a ``# lint: allow-<rule>`` comment that
  masks no finding (or names no known rule) must be removed; stale
  suppressions hide future regressions.
* **REP008 bare-except-in-engine** — ``except:`` / ``except
  BaseException`` in engine code (``core/``, ``distributed/``,
  ``parallel/``) swallows ``DeadlineExceeded`` and breaks the time-budget
  contract.

A finding is suppressed by a ``# lint: allow-<rule-name>`` comment on its
line *or* on the first line of the enclosing statement (so multi-line
calls and assignments can carry the comment up top). A file that does not
parse is reported as REP000, whatever the rule filter. Findings carry
package-relative paths and stable fingerprints. Run via ``repro-match
analyze`` with ``--format text|json|sarif``; it exits 1 on any finding.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import re
import tokenize
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis import lint
from repro.analysis.effects import (
    FunctionInfo,
    PackageEffects,
    attr_chain,
    base_name,
    build_package_effects,
)

DEFAULT_ROOT = Path(__file__).resolve().parents[1]
"""The ``src/repro`` package directory — what ``repro-match analyze`` scans."""

PHASE_NAME_MARKERS = ("topdown", "bottomup", "graft", "augment", "resolve", "claim")
"""Name fragments identifying phase closures in the distributed engines."""

CLAIM_PHASE_MARKERS = ("topdown", "graft", "resolve", "claim")
"""Phase bodies in which the claim arrays may only be written atomically."""

CLAIM_ARRAYS = frozenset({"visited", "parent", "root_y"})
"""Arrays claimed first-writer-wins by the tree-growing phases."""

ENGINE_MODULE_PATTERNS = ("core/engine_*.py", "distributed/engine*.py")
ENGINE_DIR_PATTERNS = ("core/*.py", "distributed/*.py", "parallel/*.py")

# One finding, pre-suppression: (relpath, line, col, message).
RawFinding = Tuple[str, int, int, str]


@dataclass(frozen=True)
class Finding:
    """One analyzer finding, addressed by package-relative path."""

    path: str
    line: int
    col: int
    code: str
    name: str
    message: str

    @property
    def fingerprint(self) -> str:
        """Stable identity across edits: rule + file + message.

        Line numbers are deliberately excluded so code scanning keeps
        matching a finding to its earlier reports after unrelated edits
        above it (SARIF ``partialFingerprints``).
        """
        raw = f"{self.code}|{self.path}|{self.message}".encode("utf-8")
        return hashlib.sha256(raw).hexdigest()[:16]

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} ({self.name}) {self.message}"


@dataclass(frozen=True)
class Rule:
    """One analyzer rule.

    With ``modules`` set, ``check`` takes one module's AST and yields
    ``(node, message)``; it runs on every module whose package-relative
    path matches a ``modules`` pattern and no ``exclude`` pattern. With
    ``modules`` None, ``check`` takes the whole :class:`PackageEffects`
    and yields located findings itself. REP007 has no ``check``: the
    runner evaluates it last, once it knows which suppressions every other
    rule consumed.
    """

    code: str
    name: str
    description: str
    check: Optional[Callable[..., Iterator]]
    modules: Optional[Tuple[str, ...]] = None
    exclude: Tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        return any(fnmatch(relpath, p) for p in self.modules or ()) and not any(
            fnmatch(relpath, p) for p in self.exclude
        )


# --------------------------------------------------------------------------- #
# REP004: no raw-write/read pairs in phase bodies; claims go through CAS
# --------------------------------------------------------------------------- #


def _is_phase_body(module: str, name: str, is_generator: bool, is_commit: bool) -> bool:
    if is_commit:
        # Commit helpers *are* the sanctioned write channel; they run at
        # the superstep barrier, outside any phase body.
        return False
    if is_generator and any(
        fnmatch(module, pat) for pat in ("core/*.py", "parallel/*.py")
    ):
        return True
    return fnmatch(module, "distributed/engine*.py") and any(
        marker in name.lower() for marker in PHASE_NAME_MARKERS
    )


def _check_raw_write_in_phase(pkg: PackageEffects) -> Iterator[RawFinding]:
    for info in pkg.functions.values():
        if not _is_phase_body(
            info.module, info.name, info.is_generator, info.is_commit_boundary
        ):
            continue
        overlap = sorted(info.summary.raw_write_read_overlap())
        if overlap:
            yield (
                info.module,
                info.lineno,
                0,
                f"phase body {info.name!r} both raw-writes and reads shared "
                f"array(s) {', '.join(overlap)} (directly or via helpers); "
                f"writes inside a phase must go through atomic ops or a "
                f"@superstep_commit helper",
            )
        if any(marker in info.name.lower() for marker in CLAIM_PHASE_MARKERS):
            raw = {base_name(p) for p in info.summary.raw_writes}
            claims = sorted((raw & CLAIM_ARRAYS) - set(overlap))
            if claims:
                yield (
                    info.module,
                    info.lineno,
                    0,
                    f"phase body {info.name!r} raw-writes claim array(s) "
                    f"{', '.join(claims)}; claims must be first-writer-wins "
                    f"(compare_and_swap or a @superstep_commit helper)",
                )


# --------------------------------------------------------------------------- #
# REP005: every engine phase loop runs begin_phase (deadline + hook + span)
# --------------------------------------------------------------------------- #


def _check_missing_deadline(tree: ast.Module) -> Iterator[lint.Hit]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.While):
            continue
        advances_phase = False
        calls_begin_phase = False
        for sub in ast.walk(node):
            target: Optional[ast.expr] = None
            if isinstance(sub, ast.AugAssign):
                target = sub.target
            elif isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target = sub.targets[0]
            if target is not None:
                path = attr_chain(target)
                if path is not None and base_name(path) == "phases":
                    advances_phase = True
            if isinstance(sub, ast.Call):
                path = attr_chain(sub.func)
                if path is not None and base_name(path) == "begin_phase":
                    calls_begin_phase = True
        if advances_phase and not calls_begin_phase:
            yield node, (
                "engine phase loop never calls begin_phase(...): "
                "Deadline.check, the telemetry phase span, and "
                "phase_hook are all skipped — call "
                "options.begin_phase(phases) at the top of the loop"
            )


# --------------------------------------------------------------------------- #
# REP006: visited writes in core go through the counting transitions
# --------------------------------------------------------------------------- #

VISITED_WRITERS = frozenset({"ForestState.mark_visited", "ForestState.clear_visited"})
"""The only core functions allowed to raw-write a ForestState's ``visited``."""


def _is_forest_visited(info: FunctionInfo, path: str) -> bool:
    """Whether ``path`` names a ForestState's ``visited`` array.

    That is ``self.visited`` inside a ForestState method, or any
    ``....state.visited`` (core code names its ForestState ``state``).
    Arrays other engines keep for themselves, such as the python engine's
    ``visited`` list, are outside the rule.
    """
    parts = path.split(".")
    if len(parts) < 2 or parts[-1] != "visited":
        return False
    if parts[-2] == "state":
        return True
    return parts == ["self", "visited"] and info.qualname.startswith("ForestState.")


def _check_raw_visited_write(pkg: PackageEffects) -> Iterator[RawFinding]:
    for relpath, mod in pkg.modules.items():
        if not fnmatch(relpath, "core/*.py"):
            continue
        for info in mod.functions.values():
            if info.qualname in VISITED_WRITERS:
                continue
            writes = sorted(
                p for p in info.direct.raw_writes if _is_forest_visited(info, p)
            )
            if writes:
                yield (
                    relpath,
                    info.lineno,
                    0,
                    f"{info.name!r} raw-writes {', '.join(writes)}, skipping "
                    f"the num_unvisited_y/num_candidates/unvisited_deg upkeep "
                    f"the direction rule and phase exit read; use "
                    f"mark_visited/clear_visited",
                )


# --------------------------------------------------------------------------- #
# REP008: no bare except in engine code
# --------------------------------------------------------------------------- #


def _check_bare_except(tree: ast.Module) -> Iterator[lint.Hit]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        bare = node.type is None
        base_exc = isinstance(node.type, ast.Name) and node.type.id == "BaseException"
        if bare or base_exc:
            what = "bare 'except:'" if bare else "'except BaseException'"
            yield node, (
                f"{what} in engine code swallows DeadlineExceeded and "
                f"KeyboardInterrupt, breaking the time-budget contract; "
                f"catch a concrete exception type"
            )


RULES: Tuple[Rule, ...] = (
    Rule(
        code="REP001",
        name="shared-array-mutation",
        description="item programs mutate shared arrays only via AtomicArray/SharedArray ops",
        check=lint.check_shared_mutation,
        modules=("core/*.py", "parallel/*.py"),
    ),
    Rule(
        code="REP002",
        name="global-rng",
        description="no global random state outside repro.util.rng",
        check=lint.check_global_rng,
        modules=("*",),
        exclude=("util/rng.py",),
    ),
    Rule(
        code="REP003",
        name="wallclock-cost-model",
        description="cost-model code never reads the host clock",
        check=lint.check_wallclock,
        modules=("parallel/cost_model.py", "parallel/machine.py", "distributed/bsp.py"),
    ),
    Rule(
        code="REP004",
        name="raw-write-in-phase",
        description=(
            "phase bodies never raw-write shared arrays they read; claim "
            "arrays are written first-writer-wins only"
        ),
        check=_check_raw_write_in_phase,
    ),
    Rule(
        code="REP005",
        name="missing-deadline-check",
        description=(
            "every engine phase loop calls begin_phase (Deadline.check + "
            "telemetry span + phase_hook)"
        ),
        check=_check_missing_deadline,
        modules=ENGINE_MODULE_PATTERNS,
    ),
    Rule(
        code="REP006",
        name="raw-visited-write",
        description=(
            "core writes visited only through mark_visited/clear_visited, "
            "which keep the unvisited-Y counters exact"
        ),
        check=_check_raw_visited_write,
    ),
    Rule(
        code="REP007",
        name="unused-suppression",
        description="every lint suppression comment masks a real violation",
        check=None,
    ),
    Rule(
        code="REP008",
        name="bare-except-in-engine",
        description="no bare except / except BaseException in engine code",
        check=_check_bare_except,
        modules=ENGINE_DIR_PATTERNS,
    ),
    Rule(
        code="REP009",
        name="independent-checker",
        description="the certificate checker imports nothing from core/, parallel/ or distributed/",
        check=lint.check_independent_checker,
        modules=("matching/verify.py",),
    ),
)

_NAME_TO_CODE: Dict[str, str] = {rule.name: rule.code for rule in RULES}


def _active_codes(
    select: Optional[Iterable[str]], ignore: Optional[Iterable[str]]
) -> Set[str]:
    """Rule codes left active after ``--select``/``--ignore`` filtering.

    Keys may be codes (``REP004``) or names (``raw-write-in-phase``),
    case-insensitive; unknown keys raise ValueError — a misspelled
    ``--select REP01`` must fail loudly, not silently check nothing.
    """
    by_key: Dict[str, str] = {}
    for rule in RULES:
        by_key[rule.code.upper()] = rule.code
        by_key[rule.name.upper()] = rule.code

    def resolve(keys: Optional[Iterable[str]]) -> Set[str]:
        out: Set[str] = set()
        unknown: List[str] = []
        for key in keys or ():
            code = by_key.get(key.strip().upper())
            if code is None:
                unknown.append(key)
            else:
                out.add(code)
        if unknown:
            raise ValueError(f"unknown rule(s): {', '.join(sorted(unknown))}")
        return out

    selected = resolve(select)
    ignored = resolve(ignore)
    active = selected if selected else {rule.code for rule in RULES}
    return active - ignored


# --------------------------------------------------------------------------- #
# runner
# --------------------------------------------------------------------------- #


def _suppression_lines(tree: ast.Module, line: int) -> Set[int]:
    """Lines where an allow-comment counts for a finding at ``line``.

    The finding's own line, plus the first line of the innermost
    statement spanning it — so a suppression on the first line of a
    multi-line call/assignment is honored.
    """
    candidates = {line}
    best: Optional[Tuple[int, int]] = None
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        end = getattr(node, "end_lineno", None) or node.lineno
        if node.lineno <= line <= end:
            span = (node.lineno, end)
            if best is None or (span[0] >= best[0] and span[1] <= best[1]):
                best = span
    if best is not None:
        candidates.add(best[0])
    return candidates


def _suppressed_at(
    source_lines: Sequence[str], candidates: Set[int], rule_name: str
) -> Optional[int]:
    """The line carrying an active ``allow-<rule_name>`` comment, if any."""
    for ln in sorted(candidates):
        if 1 <= ln <= len(source_lines):
            if f"lint: allow-{rule_name}" in source_lines[ln - 1]:
                return ln
    return None


def _rule_hits(rule: Rule, pkg: PackageEffects) -> Iterator[RawFinding]:
    """Every finding of one rule, located, before suppression."""
    if rule.modules is None:
        yield from rule.check(pkg)
        return
    for relpath, mod in pkg.modules.items():
        if rule.applies_to(relpath):
            for node, message in rule.check(mod.tree):
                yield relpath, node.lineno, node.col_offset, message


_ALLOW_RE = re.compile(r"lint:\s*allow-([A-Za-z0-9_-]+)")


def _check_unused_suppressions(
    pkg: PackageEffects, active: Set[str], used: Set[Tuple[str, int]]
) -> Iterator[Finding]:
    """REP007: allow-comments that masked nothing, or name unknown rules.

    A suppression for a rule *not* active in this invocation is skipped —
    it cannot be judged unused when its rule never ran. REP007 itself is
    not suppressible.
    """
    for relpath, mod in pkg.modules.items():
        for tok in tokenize.generate_tokens(io.StringIO(mod.source).readline):
            if tok.type != tokenize.COMMENT:
                continue
            match = _ALLOW_RE.search(tok.string)
            if match is None:
                continue
            name = match.group(1)
            line, col = tok.start
            code = _NAME_TO_CODE.get(name)
            if code is None:
                message = (
                    f"suppression references unknown rule {name!r}; "
                    f"known rules: {', '.join(sorted(_NAME_TO_CODE))}"
                )
            elif code in active and code != "REP007" and (relpath, line) not in used:
                message = (
                    f"suppression 'allow-{name}' masks no violation; "
                    f"remove the stale comment"
                )
            else:
                continue
            yield Finding(relpath, line, col, "REP007", "unused-suppression", message)


def run_analyze(
    root: Path | str = DEFAULT_ROOT,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Run the active rules of :data:`RULES` over a package tree.

    Rule scopes match against paths relative to ``root``, so a fixture
    tree mimicking the package layout (``<root>/core/foo.py``) exercises
    the same scoping as the real ``src/repro``. Each file is read and
    parsed once. Returns every finding sorted by location; suppression
    comments are honored per rule (except REP007), and parse failures
    surface as REP000 regardless of filtering.
    """
    active = _active_codes(select, ignore)
    pkg = build_package_effects(root)
    findings = [
        Finding(
            relpath,
            exc.lineno or 1,
            exc.offset or 0,
            "REP000",
            "parse-error",
            f"file does not parse: {exc.msg}",
        )
        for relpath, exc in pkg.parse_errors.items()
    ]
    used: Set[Tuple[str, int]] = set()
    for rule in RULES:
        if rule.code not in active or rule.check is None:
            continue
        for relpath, line, col, message in _rule_hits(rule, pkg):
            mod = pkg.modules[relpath]
            hit = _suppressed_at(
                mod.source.splitlines(), _suppression_lines(mod.tree, line), rule.name
            )
            if hit is not None:
                used.add((relpath, hit))
                continue
            findings.append(Finding(relpath, line, col, rule.code, rule.name, message))

    if "REP007" in active:
        findings.extend(_check_unused_suppressions(pkg, active, used))

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


# --------------------------------------------------------------------------- #
# output formats
# --------------------------------------------------------------------------- #


def summarize_findings(findings: Sequence[Finding]) -> str:
    """One-line per-rule tally, e.g. ``3 findings (REP001 x2, REP004 x1)``."""
    if not findings:
        return "analyze clean: 0 findings"
    counts: Dict[str, int] = {}
    for f in findings:
        counts[f.code] = counts.get(f.code, 0) + 1
    parts = ", ".join(f"{code} x{n}" for code, n in sorted(counts.items()))
    noun = "finding" if len(findings) == 1 else "findings"
    return f"{len(findings)} {noun} ({parts})"


def format_text(findings: Sequence[Finding]) -> str:
    lines = [f.render() for f in findings]
    lines.append(summarize_findings(findings))
    return "\n".join(lines)


def format_json(findings: Sequence[Finding], root: str) -> str:
    data = {
        "root": root,
        "findings": [
            {
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "rule": f.code,
                "name": f.name,
                "message": f.message,
                "fingerprint": f.fingerprint,
            }
            for f in findings
        ],
        "summary": summarize_findings(findings),
    }
    return json.dumps(data, indent=2)


def format_sarif(findings: Sequence[Finding]) -> str:
    """SARIF 2.1.0 — what CI uploads for code-scanning display."""
    rules = [
        {
            "id": rule.code,
            "name": rule.name,
            "shortDescription": {"text": rule.description},
            "helpUri": "docs/static_analysis.md",
        }
        for rule in RULES
    ]
    results = [
        {
            "ruleId": f.code,
            "level": "error",
            "message": {"text": f"({f.name}) {f.message}"},
            "partialFingerprints": {"reproAnalyze/v1": f.fingerprint},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": f.line,
                            "startColumn": max(f.col, 0) + 1,
                        },
                    }
                }
            ],
        }
        for f in findings
    ]
    doc = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
            "Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-match-analyze",
                        "informationUri": "docs/static_analysis.md",
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "src/repro/"}},
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2)
