"""Kernel benchmark harness + the committed BENCH_kernels.json baseline."""

import copy
import json
import os

import pytest

from repro.bench.kernels_bench import (
    BENCH_GRAPHS,
    load_kernel_bench,
    run_kernel_bench,
    validate_kernel_bench,
    write_kernel_bench,
)
from repro.errors import BenchmarkError

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "BENCH_kernels.json"
)


@pytest.fixture(scope="module")
def tiny_doc():
    return run_kernel_bench(scale=0.02, repeats=1)


class TestCommittedBaseline:
    """The committed artifact stays loadable and keeps its headline claim."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return load_kernel_bench(BASELINE_PATH)

    def test_schema_valid(self, baseline):
        assert baseline["schema_version"] == 5
        assert baseline["scale"] == 1.0
        assert baseline["engines"] == ["python", "numpy"]
        assert all(set(g["timings"]) == {"python", "numpy"} for g in baseline["graphs"])
        assert [g["name"] for g in baseline["graphs"]] == ["rmat", "er", "skewed"]

    def test_rmat_acceptance_claim(self, baseline):
        """The committed numbers back the >=3x vectorization claim on rmat14."""
        rmat = next(g for g in baseline["graphs"] if g["name"] == "rmat")
        assert rmat["n_x"] == rmat["n_y"] == 2**14
        assert rmat["speedup"] >= 3.0
        assert rmat["cardinality"] > 0


class TestHarness:
    def test_tiny_run_validates(self, tiny_doc):
        validate_kernel_bench(tiny_doc)
        for entry in tiny_doc["graphs"]:
            assert entry["cardinality"] > 0
            assert entry["timings"]["python"]["runs"] == 1

    def test_round_trip(self, tiny_doc, tmp_path):
        path = str(tmp_path / "bench.json")
        write_kernel_bench(tiny_doc, path)
        assert load_kernel_bench(path) == json.loads(json.dumps(tiny_doc))

    def test_catalogue_names_are_stable(self):
        # The committed baseline's rows are matched to these names.
        assert [g.name for g in BENCH_GRAPHS] == ["rmat", "er", "skewed"]


class TestValidator:
    """Schema drift must fail loudly, field by field."""

    @pytest.fixture()
    def doc(self, tiny_doc):
        return copy.deepcopy(tiny_doc)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.update(schema_version=99), "schema_version"),
            (lambda d: d.update(scale=-1), "scale"),
            (lambda d: d.pop("repeats"), "repeats"),
            (lambda d: d.update(engines=["python"]), "engines"),
            (lambda d: d.update(graphs=[]), "non-empty"),
            (lambda d: d["graphs"][0].pop("name"), "name"),
            (lambda d: d["graphs"][0].update(nnz=-5), "nnz"),
            (lambda d: d["graphs"][0]["timings"].pop("numpy"), "numpy missing"),
            (
                lambda d: d["graphs"][0]["timings"]["python"].update(best_seconds=0),
                "best_seconds",
            ),
            (lambda d: d["graphs"][0].update(speedup=123.0), "inconsistent"),
            (
                lambda d: d["graphs"].append(copy.deepcopy(d["graphs"][0])),
                "duplicate graph rows",
            ),
        ],
    )
    def test_rejects_mutations(self, doc, mutate, message):
        broken = copy.deepcopy(doc)
        mutate(broken)
        with pytest.raises(BenchmarkError, match=message):
            validate_kernel_bench(broken)

    def test_accepts_the_untouched_doc(self, doc):
        assert validate_kernel_bench(doc) is doc
