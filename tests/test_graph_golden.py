"""Pins the bytes of generated graphs, their diameters and their weights.

Each case records the edge count, the diameter D, and sha256 digests of
graph_to_json(g), of the column and row weight matrices' raw float64 bytes,
and of repr((in_adj, out_adj)), which also pins that the adjacency lists
hold Python ints. The digests were recorded before graph preprocessing moved
to numpy, and any rewrite of graph.py must reproduce them exactly.
"""

import hashlib
import math

import pytest

from hullstop import generate_digraph, graph_to_json, make_weights
from oracles import dense_weights


def _er_prob(n):
    return 4.0 * math.log(n) / n


CASES = {
    "er1000_s0": lambda: generate_digraph(1000, "erdos_renyi", 0, _er_prob(1000)),
    "er300_s0": lambda: generate_digraph(300, "erdos_renyi", 0, _er_prob(300)),
    "er300_s1": lambda: generate_digraph(300, "erdos_renyi", 1, _er_prob(300)),
    "er300_s2": lambda: generate_digraph(300, "erdos_renyi", 2, _er_prob(300)),
    "ring60": lambda: generate_digraph(60, "ring", 0),
    "complete7": lambda: generate_digraph(7, "complete", 0),
    "er1": lambda: generate_digraph(1, "erdos_renyi", 0, 0.5),
    "ring1": lambda: generate_digraph(1, "ring", 0),
}

# name: (edges, D, graph json, column weights, row weights, adjacency)
GOLDEN = {
    "er1000_s0": (28538, 4,
        "f59a65263c5ec61c87211a89f1b28c269bd664fcfd8f929d0ee6e2667e6399c4",
        "1a37db95a26a59146abd4611a2675f5672156ffa966fff4d6c78aee0ea4991f0",
        "31ec618b5a341c61f70fb7f7a55d4cb97cf0257141dd104e626d64142eeff5c1",
        "b5402a192d2c8eb90c95a375d30c0d4b16fdc80b0d1591cc527eb79d83f52a5c"),
    "er300_s0": (7120, 3,
        "8567eed1c11e545a8703bc4558b9c462d3a9b6a227837ae55e5b2d4cd48cc527",
        "48ad52daed680db0586491b74c8ee1ffbce4d1ed544144bbaaac074282d9c57c",
        "b57e6a326c2e567cdf53588b45d79cf38ce61648e9dfbe7c5d0e756fb67fdb8c",
        "29d94b18e62179485f1a5b2a346fbb42b02bd2f3395b99d1749f400fc55c5252"),
    "er300_s1": (7144, 3,
        "4e26ab42c8ce99b4cf9c55698c85b1481d4ce330ff1b9ce18c25d4128cae9feb",
        "bb30ee8b0560b60eee6d5e3f5a1689a1a0f46e8543fdb8699d958c24b76225a5",
        "3a5ac1edbae4abab28e43c9fe23e669e1c65ef90a78bb136e2233473e8211838",
        "e5eba1dd4fae0f14145ac143f4793dcb2ed743d62613004d25082260d3581d4e"),
    "er300_s2": (7218, 3,
        "51c8d3a4bffaa75474aba2bf8b33ea8261af036a3b494b8a968eb09fd34a5012",
        "900b6c806d525586216b9c87697da3dd487935f13339784ab2982c3acca235bb",
        "fd8025fcfa96ddfac6370c1b026f432e48a08fe7fcc31402785b23abaae0f1ec",
        "8645e2c62cbcd7e170d1b319f610957ee16aa95ee0b427a2d96968019e66161b"),
    "ring60": (120, 59,
        "6828afd73d39c63380e9bd7276ca99c6c07cd18cc53fe5cd1545fee0be77de83",
        "f39ee85ffef46d0e846e7ec9ae79f5805120760bf11d5e75f4581733510aca74",
        "f39ee85ffef46d0e846e7ec9ae79f5805120760bf11d5e75f4581733510aca74",
        "f4967fde3982be1dfdcae6dd62e500dfc7fe4e9b926123c7c285cc670d827029"),
    "complete7": (49, 1,
        "a72173b9ee0c6fae8fec04e955451d37b760102b64f02165aa14a989be0dcb1a",
        "c181c68d33adc254b744e830abd663b4c5881d1f9fac862a11ca3573a566d41d",
        "c181c68d33adc254b744e830abd663b4c5881d1f9fac862a11ca3573a566d41d",
        "a2cf89ac944489f04d9272428c9e2d5a91b1d73e7755f7511313b98c99651543"),
    "er1": (1, 0,
        "9d243f9eb40051c96a17bfb5f2f52451377221914035f4032186baf071b8c38f",
        "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
        "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
        "21787fdc0781d7fbfa4016cc357beaa12198d48d5c834c7c430a306ed5a48249"),
    "ring1": (1, 0,
        "1fc871780726e6fa7131fc7b0d2f61351112c327915e33d3fc630200c7171c5a",
        "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
        "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
        "21787fdc0781d7fbfa4016cc357beaa12198d48d5c834c7c430a306ed5a48249"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_graph_bytes_pinned(name):
    g = CASES[name]()
    edges, D, graph_sha, column_sha, row_sha, adj_sha = GOLDEN[name]
    assert len(g.edges) == edges
    assert g.diameter == D
    assert _sha(graph_to_json(g).encode()) == graph_sha
    assert _sha(dense_weights(make_weights(g, "column")).tobytes()) == column_sha
    assert _sha(dense_weights(make_weights(g, "row")).tobytes()) == row_sha
    assert _sha(repr((g.in_adj, g.out_adj)).encode()) == adj_sha
