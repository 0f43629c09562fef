"""Phase-discipline contract checking over static effect summaries.

The MS-BFS-Graft engines share one correctness contract (the "phase
discipline"): work happens in barrier-synchronized phases, shared arrays
are claimed only through atomic first-writer-wins channels, the packed
``visited_words`` mirror tracks every byte-view transition, and every
phase-loop iteration passes through ``GraftOptions.begin_phase`` (which
bundles ``Deadline.check``, the telemetry phase span, and ``phase_hook``).
This module checks that contract statically, against the interprocedural
effect summaries of :mod:`repro.analysis.effects`, and extends the lint
rule set (REP001–REP003 and REP009, :mod:`repro.analysis.lint`) with:

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
* **REP006 unsynced-bitset-mirror** — in core modules that maintain the
  packed ``visited_words`` mirror, any function raw-writing a ``visited``
  byte-view must also update the mirror (``bitset_set``/``bitset_clear``
  or the ``mark_visited``/``clear_visited`` helpers) — a byte write
  without the word write silently breaks the direction-optimizer's
  claim mirror.
* **REP007 unused-suppression** — a ``# lint: allow-<rule>`` comment that
  masks no violation (or names no known rule) must be removed; stale
  suppressions hide future regressions.
* **REP008 bare-except-in-engine** — ``except:`` / ``except
  BaseException`` in engine code (``core/``, ``distributed/``,
  ``parallel/``) swallows ``DeadlineExceeded`` and breaks the time-budget
  contract.

Findings carry package-relative paths and stable fingerprints; a
committed baseline file (``analysis-baseline.json``) lets a finding be
acknowledged without being fixed, so the CI gate only fails on *new*
findings. Run via ``repro-match analyze`` with ``--format
text|json|sarif``.
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

from repro.analysis.effects import (
    PackageEffects,
    attr_chain,
    base_name,
    build_package_effects,
)
from repro.analysis.lint import (
    DEFAULT_ROOT,
    RULES as LINT_RULES,
    lint_file,
    suppressed_at,
    suppression_lines,
)

BASELINE_VERSION = 1
DEFAULT_BASELINE_NAME = "analysis-baseline.json"

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
PhaseCheckFn = Callable[[PackageEffects], Iterator[RawFinding]]


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
        """Stable identity for baseline matching: rule + file + message.

        Line numbers are deliberately excluded so unrelated edits above a
        baselined finding do not resurrect it.
        """
        raw = f"{self.code}|{self.path}|{self.message}".encode("utf-8")
        return hashlib.sha256(raw).hexdigest()[:16]

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} ({self.name}) {self.message}"


@dataclass(frozen=True)
class PhaseRule:
    """A package-level contract rule over effect summaries.

    ``check`` is None for REP007, which the runner evaluates last (it
    needs to know which suppressions every *other* rule consumed).
    """

    code: str
    name: str
    description: str
    check: Optional[PhaseCheckFn]


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


def _check_missing_deadline(pkg: PackageEffects) -> Iterator[RawFinding]:
    for relpath, mod in pkg.modules.items():
        if not any(fnmatch(relpath, pat) for pat in ENGINE_MODULE_PATTERNS):
            continue
        for node in ast.walk(mod.tree):
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
                yield (
                    relpath,
                    node.lineno,
                    node.col_offset,
                    "engine phase loop never calls begin_phase(...): "
                    "Deadline.check, the telemetry phase span, and "
                    "phase_hook are all skipped — call "
                    "options.begin_phase(phases) at the top of the loop",
                )


# --------------------------------------------------------------------------- #
# REP006: visited byte-view writes keep the packed bitset mirror in step
# --------------------------------------------------------------------------- #


def _module_mentions_mirror(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "visited_words":
            return True
        if isinstance(node, ast.Name) and node.id == "visited_words":
            return True
    return False


def _check_bitset_mirror(pkg: PackageEffects) -> Iterator[RawFinding]:
    for relpath, mod in pkg.modules.items():
        if not fnmatch(relpath, "core/*.py"):
            continue
        if not _module_mentions_mirror(mod.tree):
            continue
        for info in mod.functions.values():
            byte_writes = sorted(
                p for p in info.direct.raw_writes if base_name(p) == "visited"
            )
            if not byte_writes:
                continue
            mirror_writes = {
                p
                for p in info.direct.raw_writes | info.direct.atomic_writes
                if base_name(p) == "visited_words"
            }
            if not mirror_writes:
                yield (
                    relpath,
                    info.lineno,
                    0,
                    f"{info.name!r} writes the visited byte-view "
                    f"({', '.join(byte_writes)}) without updating the "
                    f"visited_words bitset mirror; use "
                    f"mark_visited/clear_visited or pair the write with "
                    f"bitset_set/bitset_clear",
                )


# --------------------------------------------------------------------------- #
# REP008: no bare except in engine code
# --------------------------------------------------------------------------- #


def _check_bare_except(pkg: PackageEffects) -> Iterator[RawFinding]:
    for relpath, mod in pkg.modules.items():
        if not any(fnmatch(relpath, pat) for pat in ENGINE_DIR_PATTERNS):
            continue
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            bare = node.type is None
            base_exc = isinstance(node.type, ast.Name) and node.type.id == "BaseException"
            if bare or base_exc:
                what = "bare 'except:'" if bare else "'except BaseException'"
                yield (
                    relpath,
                    node.lineno,
                    node.col_offset,
                    f"{what} in engine code swallows DeadlineExceeded and "
                    f"KeyboardInterrupt, breaking the time-budget contract; "
                    f"catch a concrete exception type",
                )


PHASE_RULES: Tuple[PhaseRule, ...] = (
    PhaseRule(
        code="REP004",
        name="raw-write-in-phase",
        description=(
            "phase bodies never raw-write shared arrays they read; claim "
            "arrays are written first-writer-wins only"
        ),
        check=_check_raw_write_in_phase,
    ),
    PhaseRule(
        code="REP005",
        name="missing-deadline-check",
        description=(
            "every engine phase loop calls begin_phase (Deadline.check + "
            "telemetry span + phase_hook)"
        ),
        check=_check_missing_deadline,
    ),
    PhaseRule(
        code="REP006",
        name="unsynced-bitset-mirror",
        description=(
            "visited byte-view writes update the packed visited_words mirror"
        ),
        check=_check_bitset_mirror,
    ),
    PhaseRule(
        code="REP007",
        name="unused-suppression",
        description="every lint suppression comment masks a real violation",
        check=None,
    ),
    PhaseRule(
        code="REP008",
        name="bare-except-in-engine",
        description="no bare except / except BaseException in engine code",
        check=_check_bare_except,
    ),
)


def rule_catalog() -> List[Tuple[str, str, str]]:
    """(code, name, description) for every analyzer rule, REP001–REP009."""
    out = [(r.code, r.name, r.description) for r in LINT_RULES]
    out += [(r.code, r.name, r.description) for r in PHASE_RULES]
    return sorted(out)


_NAME_TO_CODE: Dict[str, str] = {name: code for code, name, _ in rule_catalog()}


def _active_codes(
    select: Optional[Iterable[str]], ignore: Optional[Iterable[str]]
) -> Set[str]:
    """Rule codes left active after ``--select``/``--ignore`` filtering.

    Keys may be codes (``REP004``) or names (``raw-write-in-phase``),
    case-insensitive; unknown keys raise ValueError.
    """
    catalog = rule_catalog()
    by_key: Dict[str, str] = {}
    for code, name, _ in catalog:
        by_key[code.upper()] = code
        by_key[name.upper()] = code

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
    active = selected if selected else {code for code, _, _ in catalog}
    return active - ignored


def _split_rule(rule: str) -> Tuple[str, str]:
    """``"REP001 (shared-array-mutation)"`` -> ``("REP001", "shared-array-mutation")``."""
    if " (" in rule:
        code, _, rest = rule.partition(" (")
        return code, rest.rstrip(")")
    return rule, "parse-error"


_ALLOW_RE = re.compile(r"lint:\s*allow-([A-Za-z0-9_-]+)")


def _check_unused_suppressions(
    root: Path, active: Set[str], used: Set[Tuple[str, int]]
) -> Iterator[Finding]:
    """REP007: allow-comments that masked nothing, or name unknown rules.

    A suppression for a rule *not* active in this invocation is skipped —
    it cannot be judged unused when its rule never ran. REP007 itself is
    not suppressible; acknowledged findings go in the baseline.
    """
    for path in sorted(root.rglob("*.py")):
        relpath = path.relative_to(root).as_posix()
        try:
            tokens = list(
                tokenize.generate_tokens(
                    io.StringIO(path.read_text(encoding="utf-8")).readline
                )
            )
        except (tokenize.TokenError, SyntaxError, IndentationError):
            continue
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _ALLOW_RE.search(tok.string)
            if match is None:
                continue
            name = match.group(1)
            line, col = tok.start
            code = _NAME_TO_CODE.get(name)
            if code is None:
                yield Finding(
                    path=relpath,
                    line=line,
                    col=col,
                    code="REP007",
                    name="unused-suppression",
                    message=(
                        f"suppression references unknown rule {name!r}; "
                        f"known rules: "
                        f"{', '.join(sorted(_NAME_TO_CODE))}"
                    ),
                )
                continue
            if code not in active or code == "REP007":
                continue
            if (relpath, line) not in used:
                yield Finding(
                    path=relpath,
                    line=line,
                    col=col,
                    code="REP007",
                    name="unused-suppression",
                    message=(
                        f"suppression 'allow-{name}' masks no violation; "
                        f"remove the stale comment"
                    ),
                )


def run_analyze(
    root: Path | str = DEFAULT_ROOT,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Run every analyzer rule (REP001–REP009) over a package tree.

    Returns *all* findings, pre-baseline, sorted by location. Suppression
    comments are honored per rule (except REP007); parse failures surface
    as REP000 regardless of filtering.
    """
    root = Path(root)
    active = _active_codes(select, ignore)
    pkg = build_package_effects(root)
    used: Set[Tuple[str, int]] = set()
    findings: List[Finding] = []

    lint_rules = tuple(r for r in LINT_RULES if r.code in active)
    for path in sorted(root.rglob("*.py")):
        relpath = path.relative_to(root).as_posix()
        for violation in lint_file(path, relpath, lint_rules, used):
            code, name = _split_rule(violation.rule)
            findings.append(
                Finding(
                    path=relpath,
                    line=violation.line,
                    col=violation.col,
                    code=code,
                    name=name,
                    message=violation.message,
                )
            )

    source_cache: Dict[str, List[str]] = {}
    for rule in PHASE_RULES:
        if rule.code not in active or rule.check is None:
            continue
        for relpath, line, col, message in rule.check(pkg):
            mod = pkg.modules.get(relpath)
            if mod is not None:
                if relpath not in source_cache:
                    source_cache[relpath] = (
                        (root / relpath).read_text(encoding="utf-8").splitlines()
                    )
                hit = suppressed_at(
                    source_cache[relpath],
                    suppression_lines(mod.tree, line),
                    rule.name,
                )
                if hit is not None:
                    used.add((relpath, hit))
                    continue
            findings.append(
                Finding(
                    path=relpath,
                    line=line,
                    col=col,
                    code=rule.code,
                    name=rule.name,
                    message=message,
                )
            )

    if "REP007" in active:
        findings.extend(_check_unused_suppressions(root, active, used))

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


# --------------------------------------------------------------------------- #
# baseline
# --------------------------------------------------------------------------- #


def load_baseline(path: Path) -> Set[str]:
    """Fingerprints acknowledged in a baseline file."""
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"baseline {path} has version {data.get('version')!r}; "
            f"expected {BASELINE_VERSION}"
        )
    return {str(entry["fingerprint"]) for entry in data.get("findings", [])}


def write_baseline(path: Path, findings: Sequence[Finding]) -> None:
    """Write the current finding set as the acknowledged baseline."""
    data = {
        "version": BASELINE_VERSION,
        "comment": (
            "Acknowledged repro-match analyze findings. Entries are matched "
            "by fingerprint (rule + path + message, line-independent). "
            "Keep this empty: fix findings instead of baselining them."
        ),
        "findings": [
            {
                "fingerprint": f.fingerprint,
                "rule": f.code,
                "path": f.path,
                "line": f.line,
                "message": f.message,
            }
            for f in findings
        ],
    }
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def apply_baseline(
    findings: Sequence[Finding], acknowledged: Set[str]
) -> Tuple[List[Finding], int]:
    """Split findings into (new, count-baselined)."""
    fresh = [f for f in findings if f.fingerprint not in acknowledged]
    return fresh, len(findings) - len(fresh)


# --------------------------------------------------------------------------- #
# output formats
# --------------------------------------------------------------------------- #


def summarize_findings(findings: Sequence[Finding], baselined: int) -> str:
    counts: Dict[str, int] = {}
    for f in findings:
        counts[f.code] = counts.get(f.code, 0) + 1
    if findings:
        parts = ", ".join(f"{code} x{n}" for code, n in sorted(counts.items()))
        noun = "finding" if len(findings) == 1 else "findings"
        head = f"{len(findings)} {noun} ({parts})"
    else:
        head = "analyze clean: 0 findings"
    if baselined:
        head += f"; {baselined} baselined"
    return head


def format_text(findings: Sequence[Finding], baselined: int) -> str:
    lines = [f.render() for f in findings]
    lines.append(summarize_findings(findings, baselined))
    return "\n".join(lines)


def format_json(findings: Sequence[Finding], baselined: int, root: str) -> str:
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
        "baselined": baselined,
        "summary": summarize_findings(findings, baselined),
    }
    return json.dumps(data, indent=2)


def format_sarif(findings: Sequence[Finding]) -> str:
    """SARIF 2.1.0 — what CI uploads for code-scanning display."""
    rules = [
        {
            "id": code,
            "name": name,
            "shortDescription": {"text": description},
            "helpUri": "docs/static_analysis.md",
        }
        for code, name, description in rule_catalog()
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
