"""Directed communication graphs, structural queries, and stochastic weights.

Edge convention: the ordered pair (i, j) is an edge meaning node j can send
to node i. in_adj[i] therefore lists the senders feeding node i and
out_adj[j] lists the receivers fed by node j. Self-loops are mandatory at
every node and every graph must be strongly connected; both properties are
checked at construction time.

Every per-node reduction over senders is one of two kernels over the
receiver-sorted edge arrays: _in_sum (np.bincount, one call per coordinate)
and _in_reduce (ufunc.reduceat at the receiver offsets). Every traversal
(strong connectivity, the diameter, m-hop in-neighborhoods) is one
packed-bit flood, _flood: each node holds a row of np.packbits bits and each
round ORs into it the rows of its senders through _in_reduce.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "DiGraph",
    "StochasticMatrix",
    "generate_digraph",
    "diameter",
    "m_in_neighborhood",
    "make_weights",
    "graph_to_json",
    "graph_from_json",
]

MODELS = ("erdos_renyi", "ring", "complete")


def _reversed(dst, src):
    """The receiver-sorted (dst, src) arrays of the graph with every edge
    turned around, i.e. the edges sorted by (sender, receiver)."""
    back = np.argsort(src, kind="stable")
    return src[back], dst[back]


def _in_sum(recv, send, weights, values):
    """Per receiver, the sum of weights * values[send] over its edges, for
    (n,) or (n, d) values. np.bincount adds in edge order, i.e. ascending
    sender index, exactly like an unbuffered scatter-add; np.add.reduceat
    was measured not to be bit-identical, so sums never use it."""
    n = len(values)
    if values.ndim == 1:
        return np.bincount(recv, weights * values[send], minlength=n)
    return np.column_stack([np.bincount(recv, weights * col[send], minlength=n)
                            for col in values.T])


def _in_reduce(ufunc, per_edge, starts):
    """ufunc (maximum, minimum, bitwise_or) over each receiver's per-edge
    values, segmented at the receiver offsets starts. Every receiver has its
    self-loop, so no segment is empty."""
    return ufunc.reduceat(per_edge, starts, axis=0)


def _flood(recv, send, seeds, limit=None):
    """OR-flood seed bits along the edges until every node holds every bit.

    recv and send are the edge arrays sorted by receiver. Every receiver has
    its self-loop, so no reduceat segment is empty and a node never loses a
    bit. seeds is an (n, k) bool matrix; it is packed into reach, an
    (n, ceil(k/8)) np.packbits matrix whose row v holds the seed columns
    heard by v so far, and each round ORs the rows of v's senders into it.
    The bits stay packed: an unpacked per-edge gather would cost n bytes per
    edge. Returns (rounds, reach): rounds is the number of rounds until every
    bit is set, or -1 when a round changes nothing first or `limit` rounds
    have run.
    """
    starts = np.searchsorted(recv, np.arange(len(seeds)))
    reach = np.packbits(seeds, axis=1)
    full = np.packbits(np.ones(seeds.shape[1], dtype=bool))
    rounds = 0
    while not (reach == full).all():
        if rounds == limit:
            return -1, reach
        nxt = _in_reduce(np.bitwise_or, reach[send], starts)
        if np.array_equal(nxt, reach):
            return -1, reach
        reach = nxt
        rounds += 1
    return rounds, reach


def _strongly_connected(n, dst, src):
    """Whether node 0 reaches every node and every node reaches node 0,
    for receiver-sorted edge arrays that include every self-loop."""
    seed = np.arange(n)[:, None] == 0
    return (_flood(dst, src, seed)[0] >= 0
            and _flood(*_reversed(dst, src), seed)[0] >= 0)


def _adjacency(recv, send, n):
    """Per-node tuples of Python ints: send split at recv's offsets."""
    values = send.tolist()
    bounds = np.searchsorted(recv, np.arange(n + 1)).tolist()
    return tuple(tuple(values[a:b]) for a, b in zip(bounds, bounds[1:]))


@dataclass(frozen=True)
class DiGraph:
    """Immutable directed graph with mandatory self-loops.

    edges may be given as any sequence of (receiver, sender) pairs or an
    (E, 2) integer array, in any order and with repeats; they are stored as
    a lexicographically sorted tuple of Python int pairs. seed and model are
    provenance metadata kept so a graph can be serialized reproducibly; they
    are optional for hand-built graphs.
    """

    n: int
    edges: tuple
    seed: int | None = None
    model: str | None = None
    # (dst, src) read-only int arrays over edges sorted by (receiver,
    # sender). This fixed ordering is what makes every per-node reduction in
    # the engines run over ascending sender index, the determinism contract.
    edge_arrays: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError(f"need at least one node, got n={n}")
        pairs = np.asarray(self.edges, dtype=np.intp).reshape(len(self.edges), 2)
        bad = ((pairs < 0) | (pairs >= n)).any(axis=1)
        if bad.any():
            i, j = min(map(tuple, pairs[bad].tolist()))
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        codes = np.unique(pairs[:, 0] * n + pairs[:, 1])
        missing = np.setdiff1d(np.arange(n) * (n + 1), codes, assume_unique=True)
        if missing.size:
            raise ValueError(f"node {missing[0] // (n + 1)} is missing its self-loop")
        dst, src = np.divmod(codes, n)
        dst.setflags(write=False)
        src.setflags(write=False)
        object.__setattr__(self, "edges", tuple(zip(dst.tolist(), src.tolist())))
        object.__setattr__(self, "edge_arrays", (dst, src))
        if not _strongly_connected(n, dst, src):
            raise ValueError("graph is not strongly connected")

    @cached_property
    def in_starts(self) -> np.ndarray:
        """Offset in edge_arrays of each receiver's first edge."""
        starts = np.searchsorted(self.edge_arrays[0], np.arange(self.n))
        starts.setflags(write=False)
        return starts

    @cached_property
    def in_adj(self) -> tuple:
        """in_adj[i] = ascending senders j with an edge j -> i."""
        dst, src = self.edge_arrays
        return _adjacency(dst, src, self.n)

    @cached_property
    def out_adj(self) -> tuple:
        """out_adj[j] = ascending receivers i with an edge j -> i."""
        return _adjacency(*_reversed(*self.edge_arrays), self.n)

    @cached_property
    def diameter(self) -> int:
        """Longest shortest directed path over all ordered node pairs: the
        rounds until every node has heard every other, flooding from the
        identity."""
        return _flood(*self.edge_arrays, np.eye(self.n, dtype=bool))[0]


def diameter(g: DiGraph) -> int:
    return g.diameter


def m_in_neighborhood(g: DiGraph, i: int, m: int) -> frozenset:
    """Nodes from which i is reachable in at most m hops (including i)."""
    if not (0 <= i < g.n):
        raise ValueError(f"node {i} out of range for n={g.n}")
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")
    seed = np.arange(g.n)[:, None] == i
    reach = _flood(*_reversed(*g.edge_arrays), seed, limit=m)[1]
    return frozenset(np.flatnonzero(np.unpackbits(reach, axis=1, count=1)).tolist())


def _er_attempt(rng, n, p):
    # mask[a, b] True means a sends to b, i.e. edge pair (b, a)
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, True)
    return mask


def generate_digraph(n: int, model: str = "erdos_renyi", seed: int = 0,
                     edge_prob: float = 0.5) -> DiGraph:
    """Build a strongly connected digraph with self-loops.

    erdos_renyi draws each off-diagonal directed link independently with
    probability edge_prob and rejection-samples until strongly connected
    (at most 1000 attempts, then an error: the budget failing means the
    probability is too small for this n). ring is the directed n-cycle,
    complete has every ordered pair. Identical (n, model, seed, edge_prob)
    always yields an identical graph.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got n={n}")
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")
    if model == "ring":
        j = np.arange(n)
        edges = np.column_stack((np.r_[j, (j + 1) % n], np.r_[j, j]))
        return DiGraph(n, edges, seed=seed, model=model)
    if model == "complete":
        return DiGraph(n, np.argwhere(np.ones((n, n), dtype=bool)), seed=seed, model=model)
    if not (0.0 < edge_prob <= 1.0):
        raise ValueError(f"edge_prob must be in (0, 1], got {edge_prob}")
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        dst, src = np.nonzero(_er_attempt(rng, n, edge_prob).T)
        if _strongly_connected(n, dst, src):
            return DiGraph(n, np.column_stack((dst, src)), seed=seed, model=model)
    raise RuntimeError(
        f"no strongly connected draw in 1000 attempts (n={n}, edge_prob={edge_prob}); "
        "raise edge_prob")


@dataclass(frozen=True)
class StochasticMatrix:
    """Dense nonnegative weight matrix tied to a graph's sparsity.

    Both kinds are stored receiver-row, sender-column: w[i, j] > 0 exactly
    when (i, j) is an edge. kind "column" normalizes each sender's column
    to 1 (push-sum splitting); kind "row" normalizes each receiver's row
    to 1 (averaging).
    """

    kind: str
    w: np.ndarray
    graph: DiGraph

    def __post_init__(self):
        if self.kind not in ("column", "row"):
            raise ValueError(f"kind must be 'column' or 'row', got {self.kind!r}")
        w = np.array(self.w, dtype=float)
        n = self.graph.n
        if w.shape != (n, n):
            raise ValueError(f"weight shape {w.shape} does not match n={n}")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
        expected = np.zeros((n, n), dtype=bool)
        dst, src = self.graph.edge_arrays
        expected[dst, src] = True
        if not np.array_equal(w > 0, expected):
            raise ValueError("weight sparsity does not match the edge set")
        sums = w.sum(axis=0) if self.kind == "column" else w.sum(axis=1)
        if np.abs(sums - 1.0).max() > 1e-12:
            raise ValueError(f"{self.kind} sums deviate from 1 by {np.abs(sums - 1.0).max():.3e}")
        if (np.diag(w) <= 0).any():
            raise ValueError("diagonal weights must be strictly positive")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @cached_property
    def edge_weights(self) -> np.ndarray:
        """Weights aligned with graph.edge_arrays order."""
        dst, src = self.graph.edge_arrays
        return self.w[dst, src]


def make_weights(g: DiGraph, kind: str) -> StochasticMatrix:
    """Equal-splitting weights: column kind gives each sender's out-edges
    weight 1/out_degree, row kind gives each receiver's in-edges weight
    1/in_degree. Self-loops keep every diagonal entry positive."""
    dst, src = g.edge_arrays
    if kind == "column":
        split = src
    elif kind == "row":
        split = dst
    else:
        raise ValueError(f"kind must be 'column' or 'row', got {kind!r}")
    w = np.zeros((g.n, g.n))
    w[dst, src] = 1.0 / np.bincount(split, minlength=g.n)[split]
    return StochasticMatrix(kind, w, g)


def graph_to_json(g: DiGraph) -> str:
    """Serialize as {n, edges, seed, model}; edges in lexicographic order."""
    return json.dumps({
        "n": g.n,
        "edges": np.column_stack(g.edge_arrays).tolist(),
        "seed": g.seed,
        "model": g.model,
    })


def graph_from_json(text: str) -> DiGraph:
    obj = json.loads(text)
    return DiGraph(obj["n"], obj["edges"],
                   seed=obj.get("seed"), model=obj.get("model"))
