"""Derived reordered layouts in the graph cache.

A layout entry is keyed by ``(parent prepared key, strategy)`` and stores
the permuted CSR plus both permutation arrays. The contract mirrors the
prepared-graph entries: a hit skips the ordering computation entirely, a
corrupted layout reads as a miss *for that layout only* (the parent and
sibling layouts keep answering), and ``verify()`` covers layout arrays
bit-for-bit like any other entry.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cache import GraphCache
from repro.cache.keys import layout_key
from repro.cli import main
from repro.errors import ReproError
from repro.graph.generators import power_law_bipartite
from repro.graph.reorder import REORDER_STRATEGIES, plan_reorder
from repro.telemetry.session import Telemetry


def _builder():
    return power_law_bipartite(120, 120, avg_degree=4.0, exponent=2.0, seed=11)


@pytest.fixture
def cache(tmp_path):
    return GraphCache(tmp_path / "store")


@pytest.fixture
def prepared(cache):
    return cache.prepare_spec("test", "skewed", {"seed": 11}, _builder)


class TestLayoutKey:
    def test_deterministic(self, prepared):
        assert layout_key(prepared.key, "hubsplit") == layout_key(
            prepared.key, "hubsplit"
        )

    def test_distinct_per_strategy_and_parent(self, prepared):
        keys = {layout_key(prepared.key, s) for s in REORDER_STRATEGIES}
        assert len(keys) == len(REORDER_STRATEGIES)
        assert layout_key("0" * 64, "hubsplit") != layout_key(prepared.key, "hubsplit")
        assert prepared.key not in keys


class TestPrepareLayout:
    @pytest.mark.parametrize("strategy", REORDER_STRATEGIES)
    def test_layout_matches_inline_plan(self, cache, prepared, strategy):
        layout = cache.prepare_layout(prepared, strategy)
        assert not layout.from_cache
        plan = plan_reorder(prepared.graph, strategy)
        assert layout.reorder_plan is not None
        np.testing.assert_array_equal(layout.reorder_plan.x_perm, plan.x_perm)
        np.testing.assert_array_equal(layout.reorder_plan.y_perm, plan.y_perm)

    def test_hit_skips_the_ordering_computation(self, cache, prepared):
        tel = Telemetry()
        cold = cache.prepare_layout(prepared, "hubsplit", telemetry=tel)
        assert not cold.from_cache
        warm = cache.prepare_layout(prepared, "hubsplit", telemetry=tel)
        assert warm.from_cache
        assert warm.key == cold.key == layout_key(prepared.key, "hubsplit")
        plans = tel.metrics.get(
            "repro_reorder_plans_total", {"strategy": "hubsplit"}
        )
        hits = tel.metrics.get(
            "repro_reorder_layout_hits_total", {"strategy": "hubsplit"}
        )
        assert plans is not None and plans.value == 1.0
        assert hits is not None and hits.value == 1.0
        np.testing.assert_array_equal(warm.graph.x_adj, cold.graph.x_adj)
        np.testing.assert_array_equal(
            warm.reorder_plan.x_perm, cold.reorder_plan.x_perm
        )

    def test_unknown_strategy_rejected(self, cache, prepared):
        with pytest.raises(ReproError, match="unknown reorder strategy"):
            cache.prepare_layout(prepared, "metis")
        with pytest.raises(ReproError, match="unknown reorder strategy"):
            cache.prepare_layout(prepared, "auto")

    def test_entries_carry_strategy_and_parent(self, cache, prepared):
        cache.prepare_layout(prepared, "hubsplit")
        layouts = [e for e in cache.entries() if e["kind"] == "layout"]
        assert len(layouts) == 1
        (entry,) = layouts
        assert entry["strategy"] == "hubsplit"
        assert entry["parent"] == prepared.key

    def test_load_entry_round_trips_plan(self, cache, prepared):
        cold = cache.prepare_layout(prepared, "hubsplit")
        loaded = cache.load_entry(cold.key)
        assert loaded is not None and loaded.reorder_plan is not None
        assert loaded.reorder_plan.strategy == "hubsplit"
        np.testing.assert_array_equal(
            loaded.reorder_plan.x_perm, cold.reorder_plan.x_perm
        )


class TestLayoutCorruption:
    def test_corrupt_layout_is_a_scoped_miss(self, cache, prepared):
        hub = cache.prepare_layout(prepared, "hubsplit")
        sibling_parent = cache.prepare_spec(
            "test", "skewed", {"seed": 12}, _builder
        )
        sibling = cache.prepare_layout(sibling_parent, "hubsplit")
        victim = cache._entry_dir(hub.key) / "x_perm.npy"
        victim.write_bytes(victim.read_bytes()[:-16])
        # The damaged layout rebuilds...
        again = cache.prepare_layout(prepared, "hubsplit")
        assert not again.from_cache
        # ...while a sibling layout and the parent still answer warm.
        assert cache.prepare_layout(sibling_parent, "hubsplit").from_cache
        assert sibling.key != hub.key
        assert cache.prepare_spec(
            "test", "skewed", {"seed": 11}, _builder
        ).from_cache
        # The rebuild restored a clean entry.
        assert cache.prepare_layout(prepared, "hubsplit").from_cache
        assert cache.verify() == []

    def test_verify_flags_bit_flip_in_perm_array(self, cache, prepared):
        cold = cache.prepare_layout(prepared, "hubsplit")
        victim = cache._entry_dir(cold.key) / "y_perm.npy"
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        victim.write_bytes(bytes(raw))
        problems = cache.verify()
        assert len(problems) == 1
        key, problem = problems[0]
        assert key == cold.key and "y_perm" in problem

    def test_mangled_layout_meta_falls_back(self, cache, prepared):
        cold = cache.prepare_layout(prepared, "hubsplit")
        (cache._entry_dir(cold.key) / "meta.json").write_text("{not json")
        assert not cache.prepare_layout(prepared, "hubsplit").from_cache

    @pytest.mark.parametrize("stale", ["degree", "bfs"])
    def test_stale_strategy_entry_is_listed_verified_and_missed(
        self, cache, prepared, stale, capsys
    ):
        # Stores written before the degree and bfs strategies were removed
        # may still hold their layouts: listed and checksum-clean, but a miss.
        cold = cache.prepare_layout(prepared, "hubsplit")
        meta_path = cache._entry_dir(cold.key) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["strategy"] = stale
        meta_path.write_text(json.dumps(meta))
        root = str(cache.root)
        assert main(["cache", "ls", "--cache-dir", root]) == 0
        assert f"layout[{stale}]" in capsys.readouterr().out
        assert cache.verify() == []
        assert main(["cache", "verify", "--cache-dir", root]) == 0
        assert cache.load_entry(cold.key) is None
        assert not cache._entry_dir(cold.key).exists()
        assert cold.key not in {e["key"] for e in cache.entries()}
