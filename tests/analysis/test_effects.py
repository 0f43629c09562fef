"""Effect-summary builder: direct effects, locals, interprocedural flow."""

from pathlib import Path

from repro.analysis.effects import (
    Effects,
    attr_chain,
    base_name,
    build_package_effects,
)


def write_tree(root: Path, files: dict) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def summary(pkg, module, qualname):
    info = pkg.lookup(module, qualname)
    assert info is not None, f"{module}::{qualname} not collected"
    return info.summary


class TestPaths:
    def test_attr_chain_and_base_name(self):
        import ast

        node = ast.parse("state.forest.visited", mode="eval").body
        assert attr_chain(node) == "state.forest.visited"
        assert base_name("state.forest.visited") == "visited"
        call = ast.parse("make().visited", mode="eval").body
        assert attr_chain(call) is None


class TestDirectEffects:
    def test_subscript_read_and_write(self, tmp_path):
        write_tree(tmp_path, {"m.py": "def f(a):\n    a[0] = a[1]\n"})
        eff = summary(build_package_effects(tmp_path), "m.py", "f")
        assert eff.raw_writes == {"a"}
        assert eff.reads == {"a"}

    def test_augassign_counts_read_and_write(self, tmp_path):
        write_tree(tmp_path, {"m.py": "def f(a):\n    a[0] += 1\n"})
        eff = summary(build_package_effects(tmp_path), "m.py", "f")
        assert "a" in eff.reads and "a" in eff.raw_writes

    def test_atomic_methods(self, tmp_path):
        src = (
            "def f(sh):\n"
            "    sh.store(0, 1)\n"
            "    v = sh.load(0)\n"
            "    ok = sh.compare_and_swap(0, 0, 1)\n"
            "    return v, ok\n"
        )
        eff = summary(build_package_effects(write_tree(tmp_path, {"m.py": src})), "m.py", "f")
        assert eff.atomic_writes == {"sh"}
        assert "sh" in eff.reads  # load + CAS observe the cell
        assert eff.raw_writes == set()

    def test_visited_transition_helper(self, tmp_path):
        src = "def f(state, rows):\n    state.mark_visited(rows)\n"
        eff = summary(build_package_effects(write_tree(tmp_path, {"m.py": src})), "m.py", "f")
        assert eff.atomic_writes == {"state.visited"}

    def test_locally_allocated_arrays_are_private(self, tmp_path):
        src = (
            "def f(n):\n"
            "    scratch = alloc(n)\n"
            "    scratch[0] = 1\n"
            "    return scratch[0]\n"
        )
        eff = summary(build_package_effects(write_tree(tmp_path, {"m.py": src})), "m.py", "f")
        assert eff.raw_writes == set()
        assert eff.reads == set()


class TestInterprocedural:
    def test_param_translation_through_helper(self, tmp_path):
        src = (
            "def helper(arr):\n"
            "    arr[0] = 1\n"
            "def caller(shared):\n"
            "    helper(shared)\n"
        )
        pkg = build_package_effects(write_tree(tmp_path, {"m.py": src}))
        assert summary(pkg, "m.py", "caller").raw_writes == {"shared"}

    def test_fixpoint_through_helper_chain(self, tmp_path):
        src = (
            "def inner(a):\n"
            "    a[0] = 1\n"
            "def middle(b):\n"
            "    inner(b)\n"
            "def outer(shared):\n"
            "    middle(shared)\n"
        )
        pkg = build_package_effects(write_tree(tmp_path, {"m.py": src}))
        assert summary(pkg, "m.py", "outer").raw_writes == {"shared"}

    def test_closure_effects_stay_on_nested_function(self, tmp_path):
        src = (
            "def run(n):\n"
            "    shared = alloc(n)\n"
            "    def phase():\n"
            "        shared[0] = 1\n"
            "    phase()\n"
        )
        pkg = build_package_effects(write_tree(tmp_path, {"m.py": src}))
        # The closure raw-writes shared state it does not own...
        assert summary(pkg, "m.py", "run.phase").raw_writes == {"shared"}
        # ...but in the enclosing scope the array is a private allocation.
        assert summary(pkg, "m.py", "run").raw_writes == set()

    def test_commit_boundary_converts_raw_to_atomic(self, tmp_path):
        src = (
            "def superstep_commit(fn):\n"
            "    return fn\n"
            "@superstep_commit\n"
            "def commit(arr, rows):\n"
            "    arr[rows] = 1\n"
            "def caller(shared, rows):\n"
            "    commit(shared, rows)\n"
        )
        pkg = build_package_effects(write_tree(tmp_path, {"m.py": src}))
        eff = summary(pkg, "m.py", "caller")
        assert eff.atomic_writes == {"shared"}
        assert eff.raw_writes == set()

    def test_cross_module_from_import(self, tmp_path):
        files = {
            "helpers.py": "def scatter(arr, rows):\n    arr[rows] = 1\n",
            "engine.py": (
                "from repro.helpers import scatter\n"
                "def caller(shared, rows):\n"
                "    scatter(shared, rows)\n"
            ),
        }
        pkg = build_package_effects(write_tree(tmp_path, files))
        assert summary(pkg, "engine.py", "caller").raw_writes == {"shared"}

    def test_non_name_argument_is_dropped(self, tmp_path):
        src = (
            "def helper(arr):\n"
            "    arr[0] = 1\n"
            "def caller():\n"
            "    helper(make())\n"
        )
        pkg = build_package_effects(write_tree(tmp_path, {"m.py": src}))
        assert summary(pkg, "m.py", "caller").raw_writes == set()

    def test_method_call_resolves_to_sibling(self, tmp_path):
        src = (
            "class Engine:\n"
            "    def _apply(self, rows):\n"
            "        self.visited[rows] = 1\n"
            "    def step(self, rows):\n"
            "        self._apply(rows)\n"
        )
        pkg = build_package_effects(write_tree(tmp_path, {"m.py": src}))
        assert summary(pkg, "m.py", "Engine.step").raw_writes == {"self.visited"}


class TestOverlap:
    def test_overlap_matches_on_base_name(self):
        eff = Effects(
            reads={"visited", "parent"},
            raw_writes={"state.visited"},
            atomic_writes=set(),
        )
        assert eff.raw_write_read_overlap() == {"visited"}

    def test_atomic_writes_do_not_overlap(self):
        eff = Effects(reads={"visited"}, raw_writes=set(), atomic_writes={"visited"})
        assert eff.raw_write_read_overlap() == set()
