"""Every graph build is pinned to a SHA-256 of its CSR arrays.

A digest covers ``(n_x, n_y, x_ptr, x_adj, y_ptr, y_adj)`` with each
array's dtype, so a change to any builder, generator or reader that moves
one byte of a built graph fails here. The graph cache keys entries by
``BUILDER_VERSION``; these digests are what lets a faster build keep that
version (and every cached entry) when its bytes are unchanged.
"""

from __future__ import annotations

import hashlib
import io

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.graph import generators as gen
from repro.graph.builder import from_biadjacency_lists, from_dense, from_edges
from repro.graph.csr import BipartiteCSR, sorted_unique
from repro.graph.io import read_matrix_market
from repro.graph.permute import permute
from repro.graph.readers import read_snap_edgelist


def graph_digest(graph: BipartiteCSR) -> str:
    """SHA-256 over the vertex counts and the four CSR arrays."""
    h = hashlib.sha256(np.array([graph.n_x, graph.n_y], dtype=np.int64).tobytes())
    for arr in (graph.x_ptr, graph.x_adj, graph.y_ptr, graph.y_adj):
        h.update(arr.dtype.str.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


_MTX = """%%MatrixMarket matrix coordinate pattern symmetric
% lower triangle only; the diagonal entry 3 3 appears once
5 5 7
1 1
2 1
3 3
4 2
5 1
5 4
4 3
"""

_SNAP = """# sparse, unordered ids with a repeated edge
10 7
3 7
10 7
42 5
3 5
7 99
"""

_DENSE = np.array(
    [[1, 0, 1, 0], [0, 0, 0, 0], [1, 1, 0, 1], [0, 1, 0, 0], [0, 0, 1, 1]]
)

CASES = {}
for _seed in (1, 2):
    CASES.update({
        f"random_bipartite-s{_seed}": lambda s=_seed: gen.random_bipartite(60, 50, 400, seed=s),
        # total = 2^21 > 4 * nnz: the oversample-and-deduplicate branch
        f"random_bipartite-sparse-s{_seed}": (
            lambda s=_seed: gen.random_bipartite(2048, 1024, 5000, seed=s)
        ),
        f"random_bipartite_gnp-s{_seed}": (
            lambda s=_seed: gen.random_bipartite_gnp(40, 30, 0.1, seed=s)
        ),
        f"rmat-s{_seed}": lambda s=_seed: gen.rmat_bipartite(8, edge_factor=8, seed=s),
        f"road_like-s{_seed}": lambda s=_seed: gen.road_like(300, seed=s),
        f"power_law-s{_seed}": (
            lambda s=_seed: gen.power_law_bipartite(200, 150, isolated_fraction=0.1, seed=s)
        ),
        f"community-s{_seed}": lambda s=_seed: gen.community_bipartite(4, 30, seed=s),
        f"planted-s{_seed}": lambda s=_seed: gen.planted_matching(100, 300, seed=s),
        f"surplus_core-s{_seed}": lambda s=_seed: gen.surplus_core_bipartite(80, 40, seed=s),
    })
CASES.update({
    # The seedless generators, each at two sizes.
    "grid-5pt": lambda: gen.grid_bipartite(7, 9),
    "grid-9pt": lambda: gen.grid_bipartite(6, 5, stencil=9),
    "planted-identity": lambda: gen.planted_matching(50, 80, seed=3, shuffle=False),
    "chain-1": lambda: gen.chain_graph(1),
    "chain-17": lambda: gen.chain_graph(17),
    "complete-3x4": lambda: gen.complete_bipartite(3, 4),
    "complete-0x5": lambda: gen.complete_bipartite(0, 5),
    "crown-2": lambda: gen.crown_graph(2),
    "crown-9": lambda: gen.crown_graph(9),
    "from_edges-duplicates": lambda: from_edges(
        4, 5, [(3, 4), (0, 1), (3, 4), (2, 0), (0, 1), (0, 0), (2, 4)]
    ),
    "from_edges-empty": lambda: from_edges(4, 5, []),
    "from_dense": lambda: from_dense(_DENSE),
    "from_biadjacency_lists": lambda: from_biadjacency_lists([[2, 0, 2], [], [1], [3, 0]]),
    "matrix_market": lambda: read_matrix_market(io.StringIO(_MTX)),
    "snap": lambda: read_snap_edgelist(io.StringIO(_SNAP)),
    "permute": lambda: permute(gen.road_like(200, seed=5), seed=11)[0],
    # The e2e benchmark's two graph families at scale 12 (rmat: edge
    # factor 16, seed 103; er: n x (n - n/64) with 6n edges, seed 7).
    "rmat-12-bench": lambda: gen.rmat_bipartite(scale=12, edge_factor=16, seed=103),
    "er-12-bench": lambda: gen.random_bipartite(4096, 4096 - 64, 6 * 4096, seed=7),
})

DIGESTS = {
    "chain-1": "42f43d0ec45a6340ef8b6af77843da00bfe107b82d70daefd14cac82d1b242b6",
    "chain-17": "cbd7933203db02ed71dd60618a04ea16761c27e8f59b91b14f1b270cfbb9e20e",
    "community-s1": "2b266adb973d5238ec4a5ffa4854c8b71570512613c2da6ff4ee474af729afa0",
    "community-s2": "4f85c94bd14fe9081dd66a77c206ab62ee11f72ea6bdd0d93053346f4c053d40",
    "complete-0x5": "970d8565776ec28267090a8c8f8c128d1de8e20bd4025aefd4a1ca4234f162c9",
    "complete-3x4": "a143e22e75068d8651be710e52097e0e132cff3168f412c851e55fe45578b310",
    "crown-2": "ece45b37ace9c9552e0247b1596ce6ffa4f53e66715e69595fe6cdaba1212ada",
    "crown-9": "fa659befc30059f68f365d52a8d1187f8e68dce2d1b64a2526b372277eeeeba6",
    "er-12-bench": "479898467b239703fb5349d15a128b7cdbdbed15cbf8691076b482e063394733",
    "from_biadjacency_lists": "c98cca7ef80a2d08113e6b6fec739f0ec13f45e20e1c47db386b8ce63b0cee6e",
    "from_dense": "598bfbbf0040e92907bc975c8e22b1476c7b6468fde6288c091c084996dd2443",
    "from_edges-duplicates": "d5cc3f77444123cb25afbd40d657222b079fc04facde0e226ecaaa1af4c796dd",
    "from_edges-empty": "0400584db827c65745025ea4fee2842fb6db8fcfd5ecf84bd33c3b0afbc87f61",
    "grid-5pt": "017435adbb4beb1074e274a2474126990ddd207b5a1c05abf28376e33c49719b",
    "grid-9pt": "4f172790334ab0ad650f1fe04297dbd81f09a204d3086ec446745d47ca81c08e",
    "matrix_market": "fe2946ba7774f71b8b14aeb7c4b299035d8b72a4ad44926d717cb34133fc3dd9",
    "permute": "eea0ea854f98b7580e3156aece17208c487999a91df3bc462a7369efc3928f82",
    "planted-identity": "2542c700fd6676e7341229ce41892645ea50cb01aaa3dbc2a5f4282ee9888af0",
    "planted-s1": "92da2332576e4d7176e6631693e7c5e46a755287888df2779da17b76f9ac6654",
    "planted-s2": "34b3ac0ee5d93d6d5a1d05701cb6f35d26dc0035cf122e1753428505d8e3c98c",
    "power_law-s1": "0aa2fc78322765ac317c77e41c695b69bcc9bfff939caf977fe22bc5ec696c57",
    "power_law-s2": "555d239f0ef7f594a109882c8a200060cf71a5ad529973f0af9f4c5e65a87e17",
    "random_bipartite-s1": "3d821555eace68d47ba0e43a4f22333f2806bbc73837f74a53aadcd93e2dbebc",
    "random_bipartite-s2": "f8c6dd643c8063c51efc14431b7858333f5cce89858c6c237547a6ddf3310338",
    "random_bipartite-sparse-s1": "8ed820cf230fd9ec2be30b6eee6694ca82daa1264961e03af3f4d222b2bf307a",
    "random_bipartite-sparse-s2": "1c2230c188305eed43d0a760f505c8443cd81d68721afe7b2f0c63c9097ab55f",
    "random_bipartite_gnp-s1": "f6030def004d12fb5bf91c279518b91e868734bb02bcf32b7a62040efee4bb98",
    "random_bipartite_gnp-s2": "f84a26caa1fb85f3339d44cc36074e439172faa17be1349212f032d924ea2e3a",
    "rmat-12-bench": "c2c9b815a9c5f68b72d0cac9e286b0d14ccebbfb8e891deec14ab4a1fe923635",
    "rmat-s1": "25e7bf499c34d38c3da10520d90c1598ad2fdd121d51334b88a9c796032572bb",
    "rmat-s2": "5514f8832341f3fc7abe3a65a63dc52f5e1b8bfb1d3e13dd2c634b0d1af70913",
    "road_like-s1": "a9640e6de33c7c8839788498f4a9cadc2b4cbdd8d9cc1c2622896333b12c5cc6",
    "road_like-s2": "45178aa83bf4c03e8542a0730d8056fa612069387d733562bfca95598253133e",
    "snap": "c52ddfb825565f57bf985d82ce8353a13ff75026f44998edc48339ce87bd7845",
    "surplus_core-s1": "ba243b08504f56bc7d23bad223b5dce72ac7ff61f91abf1b353f087ab6b6be2e",
    "surplus_core-s2": "ffa00a7d034335c61875aafac22ab98d8c53dc806b0f1a69c39195f591734bb7",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_build_digest(name):
    assert graph_digest(CASES[name]()) == DIGESTS[name]


def test_every_case_has_a_digest():
    assert sorted(DIGESTS) == sorted(CASES)


def _int_arrays(dtype):
    info = np.iinfo(dtype)
    return arrays(
        dtype,
        st.integers(0, 60),
        elements=st.one_of(
            st.integers(-5, 5), st.integers(int(info.min), int(info.max))
        ),
    )


@given(st.one_of(_int_arrays(np.int64), _int_arrays(np.int32)))
@example(np.empty(0, dtype=np.int64))
@example(np.empty(0, dtype=np.int32))
@example(np.array([7], dtype=np.int64))
@example(np.array([3, 3, 3, 3], dtype=np.int32))
@example(np.array([-1, -9, 0, -9, 4, -1], dtype=np.int64))
def test_sorted_unique_is_np_unique(a):
    expected = np.unique(a)
    got = sorted_unique(a)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
