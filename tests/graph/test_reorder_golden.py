"""Golden ``hubsplit`` plans: the permutations and the layout key are pinned.

Existing ``layout[hubsplit]`` cache entries stay valid only while
``plan_reorder(g, "hubsplit")`` returns the same ``(x_perm, y_perm)`` and
``layout_key`` folds the same inputs. Any change to either must bump
``REORDER_VERSION`` and re-record these digests.
"""

import hashlib

import numpy as np
import pytest

from repro.cache.keys import layout_key
from repro.graph.builder import from_edges
from repro.graph.generators import (
    grid_bipartite,
    power_law_bipartite,
    random_bipartite,
    rmat_bipartite,
)
from repro.graph.reorder import plan_reorder


def _isolated():
    # Edges touch only X < 100 and Y < 90: the last 20 X and 10 Y are isolated.
    rng = np.random.default_rng(3)
    edges = np.stack([rng.integers(0, 100, 300), rng.integers(0, 90, 300)], axis=1)
    return from_edges(120, 100, edges)


GRAPHS = {
    "rmat": lambda: rmat_bipartite(9, edge_factor=8, seed=1),
    "er": lambda: random_bipartite(400, 350, 2000, seed=2),
    "power_law": lambda: power_law_bipartite(300, 300, avg_degree=5.0, exponent=2.0, seed=4),
    "grid": lambda: grid_bipartite(16, 16),
    "isolated": _isolated,
}

GOLDEN = {
    "er": (
        "4f41ef6c938a9a2e5b91cf63a64d144ccc86d3e167bea0c7b50649ca0d5db23f",
        "4243a0b3f0fc1efe57b02ad21116ed53b579d13b0e83df0b5ef5dcf08212a6e8",
    ),
    "grid": (
        "6707bc9e65221e999382ab820b996a9d06572cee074317de57b3ef392248a1ae",
        "c34120e86f75ca7ec980204f56f8c8427da08e9b70d30c1ac6e223bb8cb702ce",
    ),
    "isolated": (
        "f3132c2763b85b25f231e2889077482b28022da3794ac6229a4a5472f68e3cd7",
        "bcf60c07fd8a1bf53eef159768d7e570f7766d3f96cbfed15cd6fde9c39bbaab",
    ),
    "power_law": (
        "4b9baf09d1d5d11c842a0937ce4f473f7e70fefe040ca806970c5e3634358aef",
        "26771b95e563ef007b98ed1e48123a9730aec40846a073413363f8d4a9c652bb",
    ),
    "rmat": (
        "0cc34c7948b3f92597bb8daa4e3b00fbb4b7d67bbae6cb7a6b94314f9e5510f1",
        "c4d1194d98745a3951b1c7a5cc66c42da223ae76d40bd036739c7b2c8f880802",
    ),
}


def _digest(perm: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(perm, dtype=np.int64).tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_hubsplit_plan_digest(name):
    plan = plan_reorder(GRAPHS[name](), "hubsplit")
    assert (_digest(plan.x_perm), _digest(plan.y_perm)) == GOLDEN[name]


def test_isolated_graph_has_isolated_vertices():
    g = _isolated()
    assert (g.deg_x == 0).sum() >= 20 and (g.deg_y == 0).sum() >= 10


def test_hubsplit_layout_key():
    assert layout_key("0" * 64, "hubsplit") == (
        "a8502a7add3942446c72bc4ed6877c3cebac55eb83747b8745d1922042c0f2b2"
    )
