"""Repo-specific AST lint rules for the matching engine.

Generic linters (ruff) cover style and obvious bugs; these rules encode
*project* contracts that no generic tool knows about:

* **REP001 shared-array-mutation** — inside item programs (generator
  functions that run on the interleaved simulator, i.e. any function
  containing ``yield`` under ``core/`` or ``parallel/``), shared numpy
  state may only be mutated through ``AtomicArray`` / ``SharedArray``
  operations (``.store``, ``.compare_and_swap``, ``.fetch_and_*``) —
  never by raw subscript assignment. Raw writes are invisible to the
  dynamic race detector and bypass the simulated memory model.
* **REP002 global-rng** — no global random state anywhere outside
  :mod:`repro.util.rng`: the legacy ``np.random.*`` API (``seed``,
  ``rand``, ``shuffle``, ...) and the stdlib ``random`` module are both
  banned; reproducibility requires every stream to flow through
  ``as_rng``/``spawn_rngs``.
* **REP003 wallclock-cost-model** — cost-model code (the work-span model,
  machine specs, BSP model) must derive simulated time from the model,
  never from the host clock (``time.time``, ``perf_counter``, ...).
* **REP009 independent-checker** — the certificate checker
  (``matching/verify.py``) imports nothing from ``repro.core``,
  ``repro.parallel`` or ``repro.distributed``: it must not share code with
  the engines whose answers it certifies, so an engine bug cannot also
  hide in the check.

A violation can be locally suppressed with a ``# lint: allow-<rule-name>``
comment on the offending line *or* on the first line of the enclosing
statement (so multi-line calls and assignments can carry the comment up
top). Use sparingly, with justification — the ``unused-suppression``
analyzer rule (REP007, :mod:`repro.analysis.phasecheck`) flags comments
that stop suppressing anything.

Run via ``repro-match lint`` (nonzero exit on violations) or
:func:`run_lint`; ``--select``/``--ignore`` filter rules by code or name.
The deeper effect-based rules REP004–REP008 run under
``repro-match analyze``.
"""

from __future__ import annotations

import ast
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

DEFAULT_ROOT = Path(__file__).resolve().parents[1]
"""The ``src/repro`` package directory — what ``repro-match lint`` scans."""


@dataclass(frozen=True)
class LintViolation:
    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


CheckFn = Callable[[ast.Module], Iterator[Tuple[ast.AST, str]]]


@dataclass(frozen=True)
class LintRule:
    code: str
    name: str
    description: str
    scope: Tuple[str, ...]
    """fnmatch patterns over the package-relative posix path; () = all files."""
    exclude: Tuple[str, ...]
    check: CheckFn

    def applies_to(self, relpath: str) -> bool:
        if any(fnmatch(relpath, pat) for pat in self.exclude):
            return False
        return not self.scope or any(fnmatch(relpath, pat) for pat in self.scope)


# --------------------------------------------------------------------------- #
# REP001: shared arrays are mutated only through AtomicArray/SharedArray ops
# --------------------------------------------------------------------------- #


def _own_body_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested functions."""
    stack = list(getattr(func, "body", []))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_generator(func: ast.AST) -> bool:
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom)) for node in _own_body_nodes(func)
    )


def _check_shared_mutation(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _is_generator(func):
            continue
        for node in _own_body_nodes(func):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    yield target, (
                        f"item program {func.name!r} mutates a shared array by "
                        f"raw subscript assignment; use AtomicArray/SharedArray "
                        f"ops (.store/.compare_and_swap/.fetch_and_*) so the "
                        f"access is visible to the race detector"
                    )


# --------------------------------------------------------------------------- #
# REP002: no global RNG state outside repro.util.rng
# --------------------------------------------------------------------------- #

_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "Philox",
    "SFC64",
    "MT19937",
}


def _attr_chain(node: ast.AST) -> List[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        return []
    return parts[::-1]


def _check_global_rng(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield node, (
                        "stdlib 'random' uses hidden global state; seed flow "
                        "must go through repro.util.rng"
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield node, (
                    "stdlib 'random' uses hidden global state; seed flow "
                    "must go through repro.util.rng"
                )
        elif isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if (
                len(chain) == 3
                and chain[0] in ("np", "numpy")
                and chain[1] == "random"
                and chain[2] not in _NP_RANDOM_ALLOWED
            ):
                yield node, (
                    f"np.random.{chain[2]}() mutates numpy's global RNG state; "
                    f"use repro.util.rng.as_rng/spawn_rngs instead"
                )


# --------------------------------------------------------------------------- #
# REP003: no wall clock in cost-model code
# --------------------------------------------------------------------------- #

_WALLCLOCK_CALLS = {
    ("time", "time"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "process_time"),
    ("time", "clock"),
}


def _check_wallclock(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    from_time: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                from_time.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        bad = (
            (len(chain) == 2 and tuple(chain) in _WALLCLOCK_CALLS)
            or (len(chain) == 3 and chain[0] == "datetime" and chain[2] in ("now", "utcnow"))
            or (len(chain) == 1 and chain[0] in from_time)
        )
        if bad:
            yield node, (
                f"{'.'.join(chain)}() reads the host clock; simulated cost "
                f"must be derived from the machine/cost model, never wall time"
            )


# --------------------------------------------------------------------------- #
# REP009: the certificate checker imports nothing from the engines
# --------------------------------------------------------------------------- #

_ENGINE_PACKAGES = ("repro.core", "repro.parallel", "repro.distributed")


def _is_engine_module(name: str) -> bool:
    return any(name == pkg or name.startswith(pkg + ".") for pkg in _ENGINE_PACKAGES)


def _check_independent_checker(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            # ``from repro import core`` names the package through the alias.
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        engine = next((name for name in names if _is_engine_module(name)), None)
        if engine is not None:
            yield node, (
                f"the certificate checker imports {engine!r}; it must stay "
                f"independent of the engines it certifies ({', '.join(_ENGINE_PACKAGES)})"
            )


# --------------------------------------------------------------------------- #
# registry + runner
# --------------------------------------------------------------------------- #

RULES: Tuple[LintRule, ...] = (
    LintRule(
        code="REP001",
        name="shared-array-mutation",
        description="item programs mutate shared arrays only via AtomicArray/SharedArray ops",
        scope=("core/*.py", "parallel/*.py"),
        exclude=(),
        check=_check_shared_mutation,
    ),
    LintRule(
        code="REP002",
        name="global-rng",
        description="no global random state outside repro.util.rng",
        scope=(),
        exclude=("util/rng.py",),
        check=_check_global_rng,
    ),
    LintRule(
        code="REP003",
        name="wallclock-cost-model",
        description="cost-model code never reads the host clock",
        scope=(
            "parallel/cost_model.py",
            "parallel/machine.py",
            "distributed/bsp.py",
        ),
        exclude=(),
        check=_check_wallclock,
    ),
    LintRule(
        code="REP009",
        name="independent-checker",
        description="the certificate checker imports nothing from core/, parallel/ or distributed/",
        scope=("matching/verify.py",),
        exclude=(),
        check=_check_independent_checker,
    ),
)


def filter_rules(
    rules: Sequence[LintRule],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> Tuple[LintRule, ...]:
    """Keep rules matching ``select`` (codes or names), drop ``ignore``.

    Raises ValueError for a key that names no rule — a misspelled
    ``--select REP01`` should fail loudly, not silently lint nothing.
    """

    def norm(keys: Optional[Iterable[str]]) -> Dict[str, str]:
        if keys is None:
            return {}
        return {k.strip().upper(): k for k in keys}

    known = {r.code.upper() for r in rules} | {r.name.upper() for r in rules}
    sel, ign = norm(select), norm(ignore)
    unknown = [orig for key, orig in {**sel, **ign}.items() if key not in known]
    if unknown:
        raise ValueError(f"unknown rule(s): {', '.join(sorted(unknown))}")

    def matches(rule: LintRule, keys: Dict[str, str]) -> bool:
        return rule.code.upper() in keys or rule.name.upper() in keys

    return tuple(
        r
        for r in rules
        if (not sel or matches(r, sel)) and not matches(r, ign)
    )


def suppression_lines(tree: ast.Module, line: int) -> Set[int]:
    """Lines where an allow-comment counts for a violation at ``line``.

    The violation's own line, plus the first line of the innermost
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


def suppressed_at(
    source_lines: Sequence[str], candidates: Set[int], rule_name: str
) -> Optional[int]:
    """The line carrying an active ``allow-<rule_name>`` comment, if any."""
    for ln in sorted(candidates):
        if 1 <= ln <= len(source_lines):
            if f"lint: allow-{rule_name}" in source_lines[ln - 1]:
                return ln
    return None


def lint_file(
    path: Path,
    relpath: str,
    rules: Sequence[LintRule] = RULES,
    used_suppressions: Optional[Set[Tuple[str, int]]] = None,
) -> List[LintViolation]:
    """Lint one file; ``relpath`` decides which rules apply.

    ``used_suppressions``, when given, collects ``(relpath, comment_line)``
    for every allow-comment that actually masked a violation — the
    unused-suppression rule subtracts these from the comments it finds.
    """
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            LintViolation(
                path=str(path),
                line=exc.lineno or 1,
                col=exc.offset or 0,
                rule="REP000",
                message=f"file does not parse: {exc.msg}",
            )
        ]
    lines = source.splitlines()
    violations: List[LintViolation] = []
    for rule in rules:
        if not rule.applies_to(relpath):
            continue
        for node, message in rule.check(tree):
            line = getattr(node, "lineno", 1)
            hit = suppressed_at(lines, suppression_lines(tree, line), rule.name)
            if hit is not None:
                if used_suppressions is not None:
                    used_suppressions.add((relpath, hit))
                continue
            violations.append(
                LintViolation(
                    path=str(path),
                    line=line,
                    col=getattr(node, "col_offset", 0),
                    rule=f"{rule.code} ({rule.name})",
                    message=message,
                )
            )
    return violations


def run_lint(
    root: Path | str = DEFAULT_ROOT,
    rules: Sequence[LintRule] = RULES,
    used_suppressions: Optional[Set[Tuple[str, int]]] = None,
) -> List[LintViolation]:
    """Lint every ``*.py`` under ``root`` (a package-shaped directory).

    Rule scopes match against paths relative to ``root``, so a fixture
    tree mimicking the package layout (``<root>/core/foo.py``) exercises
    the same scoping as the real ``src/repro``.
    """
    root = Path(root)
    if root.is_file():
        return lint_file(root, root.name, rules, used_suppressions)
    violations: List[LintViolation] = []
    for path in sorted(root.rglob("*.py")):
        relpath = path.relative_to(root).as_posix()
        violations.extend(lint_file(path, relpath, rules, used_suppressions))
    return sorted(violations, key=lambda v: (v.path, v.line, v.col, v.rule))


def summarize(violations: Sequence[LintViolation]) -> str:
    """One-line per-rule tally, e.g. ``3 violations (REP001 x2, REP004 x1)``."""
    if not violations:
        return "0 violations"
    counts: dict[str, int] = {}
    for v in violations:
        code = v.rule.split(" ")[0]
        counts[code] = counts.get(code, 0) + 1
    parts = ", ".join(f"{code} x{n}" for code, n in sorted(counts.items()))
    noun = "violation" if len(violations) == 1 else "violations"
    return f"{len(violations)} {noun} ({parts})"
