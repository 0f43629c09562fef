"""Static effect inference over shared arrays, for phase-safety checking.

The paper's correctness argument rests on a discipline: inside a
barrier-synchronized phase, shared state is only *claimed* through atomic
first-writer-wins operations (``__sync_fetch_and_or`` in the reference
implementation; ``AtomicArray.compare_and_swap`` here), while plain writes
are reserved for locations a thread exclusively owns. The dynamic race
detector (:mod:`repro.analysis.racecheck`) can only spot-check that
discipline on the schedules it happens to run; this module infers it
*statically*, for every function in the package, in the spirit of compiler
effect systems.

For each function definition (including nested functions — the engines'
phase bodies are closures) we infer an **effect summary** over named
arrays:

* ``reads`` — arrays read through subscription (``visited[y]``,
  ``state.leaf[safe]``) or through an atomic ``.load``;
* ``raw_writes`` — arrays written through plain subscript assignment
  (``visited[winners] = 1``), the write class that is invisible to the
  race detector and unsynchronised under the simulated memory model;
* ``atomic_writes`` — arrays written through the sanctioned channels:
  ``.store`` / ``.compare_and_swap`` / ``.fetch_and_or`` /
  ``.fetch_and_add`` on Atomic/Shared wrappers, the
  :class:`~repro.core.forest.ForestState` visited-transition helpers
  (``mark_visited`` / ``clear_visited``), and calls into functions marked
  as **commit boundaries** (decorated ``@superstep_commit``, see
  :mod:`repro.distributed.commit`) — the BSP analogue of an atomic claim,
  applied by the owning rank at a superstep boundary.

Summaries are propagated **interprocedurally** through a call graph built
from the same AST: a bare call resolves to a function visible in the
caller's scope chain (nested helpers first, then module scope), a dotted
call resolves through the module's imports, and callee effects on its own
*parameters* are translated to the caller's argument names before merging
(so a helper mutating ``arr`` flows back as an effect on the array the
caller actually passed). Effects on closure variables propagate by name —
exactly right for the engines, whose phase bodies and helpers share one
enclosing scope. The propagation runs to a fixpoint, so chains of helpers
and mutual recursion are handled.

Arrays are identified by dotted access path (``state.visited``,
``visited``); rules typically match on the path's last component, which is
stable across the engines' local aliasing (``visited = state.visited``).

This is a deliberately name-based, flow-insensitive analysis: it
over-approximates (a read anywhere in the function counts) and does not
track aliasing through assignments. That is the right trade for contract
checking — the phase rules in :mod:`repro.analysis.phasecheck` are chosen
so the over-approximation stays quiet on disciplined code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

ATOMIC_METHODS = frozenset(
    {"store", "compare_and_swap", "fetch_and_or", "fetch_and_add"}
)
"""Methods of AtomicArray/SharedArray that count as sanctioned writes."""

ATOMIC_LOAD_METHODS = frozenset({"load"})
"""Methods that count as (atomic) reads of the receiver array."""

VISITED_TRANSITION_HELPERS = frozenset(
    {"mark_visited", "clear_visited", "count_visit"}
)
"""ForestState methods that perform sanctioned visited-flag transitions."""

COMMIT_DECORATOR = "superstep_commit"
"""Decorator marking a function as a superstep-boundary commit helper.

A call to a decorated function is treated as an *atomic* write to every
array argument it receives — the static analogue of the owner-side
first-writer-wins resolution a BSP engine applies between supersteps."""


def attr_chain(node: ast.AST) -> Optional[str]:
    """Dotted access path of a Name/Attribute chain, or None.

    ``state.visited`` -> ``"state.visited"``; anything rooted in a call or
    subscript (not a stable name) returns None.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def base_name(path: str) -> str:
    """Last component of a dotted access path (``state.visited`` -> ``visited``)."""
    return path.rsplit(".", 1)[-1]


@dataclass
class Effects:
    """Shared-array effect sets of one function (direct or summarized)."""

    reads: Set[str] = field(default_factory=set)
    raw_writes: Set[str] = field(default_factory=set)
    atomic_writes: Set[str] = field(default_factory=set)

    def copy(self) -> "Effects":
        return Effects(set(self.reads), set(self.raw_writes), set(self.atomic_writes))

    def merge(self, other: "Effects") -> bool:
        """Union ``other`` into self; True if anything was added."""
        before = (len(self.reads), len(self.raw_writes), len(self.atomic_writes))
        self.reads |= other.reads
        self.raw_writes |= other.raw_writes
        self.atomic_writes |= other.atomic_writes
        return before != (len(self.reads), len(self.raw_writes), len(self.atomic_writes))

    def translated(self, params: Tuple[str, ...], args: Tuple[Optional[str], ...]) -> "Effects":
        """Callee effects with parameter names rewritten to caller argument paths.

        ``params`` are the callee's positional parameter names; ``args`` the
        caller's argument access paths (None for non-name arguments).
        Effects on paths rooted at a parameter are rewritten to the
        corresponding argument path (or dropped when the argument is not a
        plain name — the caller has no stable name for that array); effects
        on closure/global names pass through unchanged.
        """
        mapping: Dict[str, Optional[str]] = dict(zip(params, args))

        def rewrite(paths: Set[str]) -> Set[str]:
            out: Set[str] = set()
            for path in paths:
                root, _, rest = path.partition(".")
                if root in mapping:
                    mapped = mapping[root]
                    if mapped is not None:
                        out.add(mapped + ("." + rest if rest else ""))
                else:
                    out.add(path)
            return out

        return Effects(
            rewrite(self.reads), rewrite(self.raw_writes), rewrite(self.atomic_writes)
        )

    def raw_write_read_overlap(self) -> Set[str]:
        """Arrays (by base name) both raw-written and read in this summary."""
        raw = {base_name(p) for p in self.raw_writes}
        read = {base_name(p) for p in self.reads}
        return raw & read


@dataclass
class CallSite:
    """One call from a function body, before resolution."""

    target: str
    """Dotted call path as written (``helper``, ``kernels.reset_rows``)."""
    args: Tuple[Optional[str], ...]
    """Access paths of positional arguments (None where not a plain name)."""
    lineno: int


@dataclass
class FunctionInfo:
    """Everything the analyzer knows about one function definition."""

    module: str
    """Package-relative posix path of the defining module."""
    qualname: str
    """Dotted name including enclosing functions (``run.topdown_program``)."""
    name: str
    lineno: int
    end_lineno: int
    params: Tuple[str, ...]
    is_generator: bool
    is_commit_boundary: bool
    direct: Effects
    calls: List[CallSite]
    local_names: FrozenSet[str] = frozenset()
    """Names bound by plain assignment in the body (thread-private data)."""
    summary: Effects = field(default_factory=Effects)
    resolved_calls: Set[str] = field(default_factory=set)
    """Keys (``module::qualname``) of call targets resolved in the package."""

    @property
    def key(self) -> str:
        return f"{self.module}::{self.qualname}"


def own_statements(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested function defs."""
    stack: List[ast.AST] = list(getattr(func, "body", []))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def is_generator(func: ast.AST) -> bool:
    """Whether a function's own body (nested functions aside) yields."""
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom)) for node in own_statements(func)
    )


def _has_commit_decorator(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for dec in func.decorator_list:
        path = attr_chain(dec if not isinstance(dec, ast.Call) else dec.func)
        if path is not None and base_name(path) == COMMIT_DECORATOR:
            return True
    return False


def _bound_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> Set[str]:
    """Names bound by plain assignment in the function's own body.

    Arrays freshly created inside a function (``compute = np.zeros(...)``)
    are thread/rank-private, not shared state; their effects must not
    propagate. Parameters are *not* local in this sense (they alias caller
    data), and ``nonlocal``/``global`` declarations un-localize a name.
    """
    bound: Set[str] = set()
    freed: Set[str] = set()
    params = {a.arg for a in func.args.args}
    params |= {a.arg for a in func.args.posonlyargs}
    params |= {a.arg for a in func.args.kwonlyargs}
    for special in (func.args.vararg, func.args.kwarg):
        if special is not None:
            params.add(special.arg)

    def add_target(target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            bound.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                add_target(elt)
        elif isinstance(target, ast.Starred):
            add_target(target.value)

    for node in own_statements(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                add_target(target)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            add_target(node.target)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            add_target(node.target)
        elif isinstance(node, ast.NamedExpr):
            add_target(node.target)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    add_target(item.optional_vars)
        elif isinstance(node, (ast.Nonlocal, ast.Global)):
            freed.update(node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    return (bound - freed) - params


def _collect_direct_effects(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Tuple[Effects, List[CallSite]]:
    """Direct (intraprocedural) effects and call sites."""
    eff = Effects()
    calls: List[CallSite] = []
    for node in own_statements(func):
        if isinstance(node, ast.Subscript):
            path = attr_chain(node.value)
            if path is None:
                continue
            if isinstance(node.ctx, ast.Load):
                eff.reads.add(path)
            else:  # Store or Del context: a plain, unsynchronised write
                eff.raw_writes.add(path)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Subscript):
            # arr[i] += v both reads and raw-writes arr.
            path = attr_chain(node.target.value)
            if path is not None:
                eff.reads.add(path)
        elif isinstance(node, ast.Call):
            func_path = attr_chain(node.func)
            if func_path is None:
                continue
            method = base_name(func_path)
            receiver = func_path.rsplit(".", 1)[0] if "." in func_path else None
            if receiver is not None and method in ATOMIC_METHODS:
                eff.atomic_writes.add(receiver)
                if method == "compare_and_swap":
                    eff.reads.add(receiver)
                continue
            if receiver is not None and method in ATOMIC_LOAD_METHODS:
                eff.reads.add(receiver)
                continue
            if receiver is not None and method in VISITED_TRANSITION_HELPERS:
                # state.mark_visited(rows): sanctioned transition of the
                # visited flag array.
                eff.atomic_writes.add(receiver + ".visited")
                continue
            args = tuple(attr_chain(a) for a in node.args)
            calls.append(CallSite(target=func_path, args=args, lineno=node.lineno))
    return eff, calls


def _drop_locals(eff: Effects, local: Set[str] | FrozenSet[str]) -> Effects:
    """Remove effects on paths rooted at function-local (private) names."""

    def keep(paths: Set[str]) -> Set[str]:
        return {p for p in paths if p.partition(".")[0] not in local}

    return Effects(keep(eff.reads), keep(eff.raw_writes), keep(eff.atomic_writes))


@dataclass
class ModuleInfo:
    """Per-module AST facts: functions, imports, the source and its parse tree."""

    relpath: str
    source: str
    tree: ast.Module
    functions: Dict[str, FunctionInfo]
    """qualname -> info for every function defined in the module."""
    import_aliases: Dict[str, str]
    """local alias -> absolute module dotted path (``kernels`` ->
    ``repro.core.kernels``)."""
    from_imports: Dict[str, Tuple[str, str]]
    """local name -> (absolute module dotted path, original name)."""


def _module_dotted(relpath: str) -> str:
    """``core/kernels.py`` -> ``repro.core.kernels`` (best-effort)."""
    stem = relpath[:-3] if relpath.endswith(".py") else relpath
    parts = [p for p in stem.split("/") if p != "__init__"]
    return ".".join(["repro"] + parts) if parts else "repro"


def _collect_module(relpath: str, source: str, tree: ast.Module) -> ModuleInfo:
    functions: Dict[str, FunctionInfo] = {}
    import_aliases: Dict[str, str] = {}
    from_imports: Dict[str, Tuple[str, str]] = {}

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                import_aliases[alias.asname or alias.name.split(".")[-1]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                from_imports[alias.asname or alias.name] = (node.module, alias.name)

    def visit(func: ast.FunctionDef | ast.AsyncFunctionDef, prefix: str) -> None:
        qualname = f"{prefix}{func.name}" if prefix else func.name
        direct, calls = _collect_direct_effects(func)
        local = _bound_names(func)
        direct = _drop_locals(direct, local)
        functions[qualname] = FunctionInfo(
            module=relpath,
            qualname=qualname,
            name=func.name,
            lineno=func.lineno,
            end_lineno=getattr(func, "end_lineno", func.lineno) or func.lineno,
            params=tuple(a.arg for a in func.args.args),
            is_generator=is_generator(func),
            is_commit_boundary=_has_commit_decorator(func),
            direct=direct,
            calls=calls,
            local_names=frozenset(local),
        )
        for child in ast.walk(func):
            if child is func:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Only immediate children here; deeper nesting recurses.
                if _enclosing_is(func, child):
                    visit(child, qualname + ".")

    def _enclosing_is(
        parent: ast.FunctionDef | ast.AsyncFunctionDef,
        child: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> bool:
        for node in own_statements(parent):
            if node is child:
                return True
        return False

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit(node, "")
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(item, node.name + ".")

    return ModuleInfo(
        relpath=relpath,
        source=source,
        tree=tree,
        functions=functions,
        import_aliases=import_aliases,
        from_imports=from_imports,
    )


@dataclass
class PackageEffects:
    """Effect summaries for every function in a package tree."""

    modules: Dict[str, ModuleInfo]
    functions: Dict[str, FunctionInfo]
    """``module::qualname`` -> info, summaries populated."""
    parse_errors: Dict[str, SyntaxError]
    """relpath -> why the file does not parse (it has no ModuleInfo)."""

    def lookup(self, module: str, qualname: str) -> Optional[FunctionInfo]:
        return self.functions.get(f"{module}::{qualname}")

    def module_functions(self, relpath: str) -> List[FunctionInfo]:
        mod = self.modules.get(relpath)
        return list(mod.functions.values()) if mod is not None else []


def _index_by_dotted_module(modules: Dict[str, ModuleInfo]) -> Dict[str, str]:
    """Absolute dotted module path -> relpath, for import resolution."""
    out: Dict[str, str] = {}
    for relpath in modules:
        out[_module_dotted(relpath)] = relpath
    return out


def _resolve_call(
    site: CallSite,
    caller: FunctionInfo,
    mod: ModuleInfo,
    modules: Dict[str, ModuleInfo],
    dotted_index: Dict[str, str],
) -> Optional[FunctionInfo]:
    """Resolve one call site to a FunctionInfo in the package, if possible."""
    target = site.target
    if "." not in target:
        # Bare name: innermost enclosing scope first, then module scope,
        # then from-imports.
        scope = caller.qualname.split(".")
        for depth in range(len(scope), 0, -1):
            qual = ".".join(scope[:depth]) + "." + target
            if qual in mod.functions:
                return mod.functions[qual]
        if target in mod.functions:
            return mod.functions[target]
        if target in mod.from_imports:
            dotted, original = mod.from_imports[target]
            relpath = dotted_index.get(dotted)
            if relpath is not None and original in modules[relpath].functions:
                return modules[relpath].functions[original]
        return None
    head, _, rest = target.partition(".")
    if "." in rest:
        return None  # deep attribute call (obj.attr.method): not resolvable
    if head in ("self", "cls"):
        # Method call on the defining class: resolve as a sibling method.
        class_prefix = caller.qualname.rsplit(".", 1)[0] if "." in caller.qualname else ""
        if class_prefix:
            qual = f"{class_prefix}.{rest}"
            if qual in mod.functions:
                return mod.functions[qual]
        return None
    # ``module_alias.func`` through a plain import...
    if head in mod.import_aliases:
        relpath = dotted_index.get(mod.import_aliases[head])
        if relpath is not None and rest in modules[relpath].functions:
            return modules[relpath].functions[rest]
    # ...or ``submodule.func`` through a from-import of a module object.
    if head in mod.from_imports:
        dotted, original = mod.from_imports[head]
        relpath = dotted_index.get(f"{dotted}.{original}")
        if relpath is not None and rest in modules[relpath].functions:
            return modules[relpath].functions[rest]
    return None


def build_package_effects(root: Path | str) -> PackageEffects:
    """Parse every ``*.py`` under ``root`` and compute effect summaries.

    ``root`` may also be a single file. Files that fail to parse get no
    summaries; their errors land in ``parse_errors`` (the analyzer's REP000).
    """
    root = Path(root)
    modules: Dict[str, ModuleInfo] = {}
    parse_errors: Dict[str, SyntaxError] = {}
    paths = [root] if root.is_file() else sorted(root.rglob("*.py"))
    for path in paths:
        relpath = path.name if root.is_file() else path.relative_to(root).as_posix()
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            parse_errors[relpath] = exc
            continue
        modules[relpath] = _collect_module(relpath, source, tree)

    dotted_index = _index_by_dotted_module(modules)
    functions: Dict[str, FunctionInfo] = {}
    for mod in modules.values():
        for info in mod.functions.values():
            info.summary = info.direct.copy()
            functions[info.key] = info

    # Fixpoint propagation over the call graph: merge callee summaries
    # (translated through positional parameters) into callers until stable.
    changed = True
    iterations = 0
    while changed and iterations < 50:
        changed = False
        iterations += 1
        for mod in modules.values():
            for info in mod.functions.values():
                for site in info.calls:
                    callee = _resolve_call(site, info, mod, modules, dotted_index)
                    if callee is None:
                        continue
                    info.resolved_calls.add(callee.key)
                    args = site.args
                    head = site.target.partition(".")[0]
                    if head in ("self", "cls") and callee.params[:1] and (
                        callee.params[0] in ("self", "cls")
                    ):
                        # Bound method call: the receiver is the implicit
                        # first argument, so align it with the self param.
                        args = (head,) + args
                    translated = callee.summary.translated(callee.params, args)
                    if callee.is_commit_boundary:
                        # A commit boundary is the sanctioned write channel:
                        # its raw writes surface to the caller as atomic.
                        translated = Effects(
                            reads=translated.reads,
                            raw_writes=set(),
                            atomic_writes=translated.raw_writes
                            | translated.atomic_writes,
                        )
                    translated = _drop_locals(translated, info.local_names)
                    if info.summary.merge(translated):
                        changed = True

    return PackageEffects(modules=modules, functions=functions, parse_errors=parse_errors)
