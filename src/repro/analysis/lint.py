"""The analyzer's AST checks: project contracts no generic linter knows.

Each check takes one module's AST and yields ``(node, message)`` pairs;
the rule table in :mod:`repro.analysis.phasecheck` scopes them to files
and runs them with the effect-based rules under ``repro-match analyze``.

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
* **REP010 hashed-unique** — no plain ``np.unique(a)``: since numpy 2.3
  it takes a hash path several times slower than one sort and a mask,
  which :func:`repro.graph.csr.sorted_unique` does with the same result.
  Calls passing ``return_index``, ``return_inverse``, ``return_counts``
  or ``axis`` are left alone.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from repro.analysis.effects import attr_chain, is_generator, own_statements

Hit = Tuple[ast.AST, str]

# --------------------------------------------------------------------------- #
# REP001: shared arrays are mutated only through AtomicArray/SharedArray ops
# --------------------------------------------------------------------------- #


def check_shared_mutation(tree: ast.Module) -> Iterator[Hit]:
    """REP001: raw subscript writes inside generator item programs."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not is_generator(func):
            continue
        for node in own_statements(func):
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


def _call_chain(node: ast.Call) -> List[str]:
    """``np.random.rand(...)`` -> ``["np", "random", "rand"]``; [] if unnamed."""
    path = attr_chain(node.func)
    return path.split(".") if path is not None else []


def check_global_rng(tree: ast.Module) -> Iterator[Hit]:
    """REP002: stdlib ``random`` imports and global ``np.random.*`` calls."""
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
            chain = _call_chain(node)
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


def check_wallclock(tree: ast.Module) -> Iterator[Hit]:
    """REP003: host-clock reads (``time.*``, ``datetime.now``)."""
    from_time: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                from_time.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _call_chain(node)
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


def check_independent_checker(tree: ast.Module) -> Iterator[Hit]:
    """REP009: imports of the engine packages."""
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
# REP010: deduplicate by sorting, not through np.unique's hash path
# --------------------------------------------------------------------------- #

_UNIQUE_EXTRAS = {"return_index", "return_inverse", "return_counts", "axis"}


def check_hashed_unique(tree: ast.Module) -> Iterator[Hit]:
    """REP010: ``np.unique``/``numpy.unique`` calls with none of its extras."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _call_chain(node)
        if chain[:1] not in (["np"], ["numpy"]) or chain[1:] != ["unique"]:
            continue
        if any(kw.arg in _UNIQUE_EXTRAS for kw in node.keywords):
            continue
        yield node, (
            f"{'.'.join(chain)}() without return_index/return_inverse/"
            f"return_counts/axis hashes on numpy >= 2.3; use "
            f"repro.graph.csr.sorted_unique (one sort and a mask, same result)"
        )
