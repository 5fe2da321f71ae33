"""Directed communication graphs, structural queries, and stochastic weights.

Edge convention: the ordered pair (i, j) is an edge meaning node j can send
to node i. in_adj[i] therefore lists the senders feeding node i and
out_adj[j] lists the receivers fed by node j. Self-loops are mandatory at
every node and every graph must be strongly connected; both properties are
checked at construction time, strong connectivity by the diameter's flood.

Every per-node reduction over senders goes through the graph's in-layout
(_InLayout), built once at construction in the jagged-diagonal form (Saad,
"Krylov subspace methods on supercomputers", SIAM J. Sci. Stat. Comput.
10(6), 1989). Receivers are ranked by descending in-degree, a stable sort,
so the ranking is the identity when every in-degree is equal (rings,
complete graphs). Slot k lists the (k+1)-th smallest sender of each of the
first m_k ranked receivers, the ones with more than k senders; every
receiver has its self-loop, so slot 0 covers all of them. Two kernels use
it: _in_sum for weighted sums of the rows of an (n, c) array and _in_reduce
for maximum, minimum and bitwise_or. Each gathers slot 0 into a fresh
accumulator and the later slots with one ndarray.take, combines slot k into
the accumulator's first m_k rows in place, and undoes the ranking with one
more take. So each receiver combines its senders in ascending order from
its first term, with no pad slots; the sum's closing + 0.0 turns a -0.0
total into +0.0 and changes nothing else, which gives the bytes of a sum
started at 0.0.
Every traversal (the diameter, m-hop in-neighborhoods) is one packed-bit
flood, _flood: each node holds a row of np.packbits bits and each round
ORs into it the rows of its senders through _in_reduce.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "DiGraph",
    "StochasticMatrix",
    "generate_digraph",
    "m_in_neighborhood",
    "make_weights",
    "graph_to_json",
    "graph_from_json",
]

MODELS = ("erdos_renyi", "ring", "complete")


def _integer(name, value, low=None) -> int:
    """value as an int if operator.index accepts it (3.0 and 2.5 it does
    not), and if it is at least low when low is given."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _reversed(dst, src):
    """The receiver-sorted (dst, src) arrays of the graph with every edge
    turned around, i.e. the edges sorted by (sender, receiver)."""
    back = np.argsort(src, kind="stable")
    return src[back], dst[back]


class _InLayout(NamedTuple):
    """A graph's in-adjacency slot by slot (the module docstring). Slot k is
    send[start:start + m] for (start, m) = blocks[k]: the (k+1)-th smallest
    sender of each of the first m ranked receivers. ranked lists the
    receivers by rank and rank gives each receiver's rank; both are None
    when the ranking is the identity. The arrays are read-only."""

    send: np.ndarray
    ranked: np.ndarray | None
    rank: np.ndarray | None
    blocks: tuple


def _slot_order(n, recv):
    """For receiver-sorted edge receivers recv that include every self-loop:
    the edge at each slot of the in-layout, the ranked receivers, each
    receiver's rank (both None for the identity) and the (start, m) blocks."""
    deg = np.bincount(recv, minlength=n)
    ranked = np.argsort(-deg, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[ranked] = np.arange(n)
    # m[k]: the receivers with more than k senders, the first m[k] ranked
    m = n - np.cumsum(np.bincount(deg))[:-1]
    starts = np.cumsum(m) - m
    pos = np.arange(len(recv)) - (np.cumsum(deg) - deg)[recv]
    order = np.empty(len(recv), dtype=np.intp)
    order[starts[pos] + rank[recv]] = np.arange(len(recv))
    for a in (ranked, rank):
        a.setflags(write=False)
    if (deg[1:] <= deg[:-1]).all():
        ranked = rank = None
    return order, ranked, rank, tuple(zip(starts.tolist(), m.tolist()))


def _in_layout(n, recv, send) -> _InLayout:
    """The in-layout of the receiver-sorted edge arrays (recv, send) that
    include every self-loop."""
    order, *ranking = _slot_order(n, recv)
    send = send[order]
    send.setflags(write=False)
    return _InLayout(send, *ranking)


def _slots(values, layout):
    """The rows of the (n, ...) values at slot 0, a fresh (n, ...)
    accumulator in rank order, and at every later slot, in slot order."""
    n = len(values)
    return values.take(layout.send[:n], axis=0), values.take(layout.send[n:], axis=0)


def _fold(ufunc, head, tail, layout):
    """Fold each later slot of tail into the rows of head in place, then
    return head in node order: head itself under the identity ranking."""
    n = len(head)
    for start, m in layout.blocks[1:]:
        ufunc(head[:m], tail[start - n:start - n + m], out=head[:m])
    return head if layout.rank is None else head.take(layout.rank, axis=0)


def _in_sum(W, X):
    """Per receiver, the sum over its senders of W's weight times the
    sender's row of the (n, c) array X, as a C-ordered (n, c) array. Terms
    are added in ascending sender order from the first, and the closing
    + 0.0 gives the bytes of a sum started at 0.0 (the module docstring)."""
    layout, wk = W.graph.in_layout, W.slot_weights
    n = len(X)
    head, tail = _slots(X, layout)
    head *= wk[:n, None]
    tail *= wk[n:, None]
    out = _fold(np.add, head, tail, layout)
    out += 0.0
    return out


def _in_reduce(ufunc, values, layout):
    """ufunc (maximum, minimum, bitwise_or) over the rows of the (n, ...)
    values at each receiver's senders, in ascending sender order."""
    return _fold(ufunc, *_slots(values, layout), layout)


def _flood(layout, seeds, limit=None):
    """OR-flood seed bits along the edges of layout until every node holds
    every bit.

    seeds is an (n, k) bool matrix; it is packed into reach, an
    (n, ceil(k/8)) np.packbits matrix whose row v holds the seed columns
    heard by v so far, and each round ORs the rows of v's senders into it.
    Every receiver hears its own self-loop, so a node never loses a bit.
    The bits stay packed: an unpacked per-edge gather would cost n bytes per
    edge. Returns (rounds, reach): rounds is the number of rounds until every
    bit is set, or -1 when a round changes nothing first or `limit` rounds
    have run.
    """
    reach = np.packbits(seeds, axis=1)
    full = np.packbits(np.ones(seeds.shape[1], dtype=bool))
    rounds = 0
    while not (reach == full).all():
        if rounds == limit:
            return -1, reach
        nxt = _in_reduce(np.bitwise_or, reach, layout)
        if np.array_equal(nxt, reach):
            return -1, reach
        reach = nxt
        rounds += 1
    return rounds, reach


def _adjacency(recv, send, n):
    """Per-node tuples of Python ints: send split at recv's offsets."""
    values = send.tolist()
    bounds = np.searchsorted(recv, np.arange(n + 1)).tolist()
    return tuple(tuple(values[a:b]) for a, b in zip(bounds, bounds[1:]))


@dataclass(frozen=True)
class DiGraph:
    """Immutable, strongly connected directed graph with mandatory self-loops.

    edges may be given as any sequence of (receiver, sender) pairs or an
    (E, 2) integer array, in any order and with repeats. g.edges, their
    sorted tuple of Python int pairs and most of a graph's memory, is built
    from edge_arrays when first read. seed and model are provenance metadata
    kept so a graph can be serialized reproducibly; they are optional for
    hand-built graphs. Construction computes the diameter to check
    strong connectivity, so reading g.diameter later floods nothing.
    """

    n: int
    edges: tuple
    seed: int | None = None
    model: str | None = None
    # (dst, src) read-only int arrays over edges sorted by (receiver,
    # sender). This fixed ordering is what makes every per-node reduction in
    # the engines run over ascending sender index, the determinism contract.
    edge_arrays: tuple = field(init=False, repr=False, compare=False)
    # how every per-node reduction gathers its senders' values (_InLayout)
    in_layout: _InLayout = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = _integer("n", self.n)
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
        object.__setattr__(self, "edge_arrays", (dst, src))
        object.__setattr__(self, "in_layout", _in_layout(n, dst, src))
        if self.diameter < 0:
            raise ValueError("graph is not strongly connected")
        del self.__dict__["edges"]  # __getattr__ rebuilds it

    def __getattr__(self, name):
        if name != "edges":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        dst, src = self.edge_arrays
        edges = self.__dict__["edges"] = tuple(zip(dst.tolist(), src.tolist()))
        return edges

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
        identity; -1, which construction rejects, when the flood stalls
        because the graph is not strongly connected."""
        return _flood(self.in_layout, np.eye(self.n, dtype=bool))[0]


def m_in_neighborhood(g: DiGraph, i: int, m: int) -> frozenset:
    """Nodes from which i is reachable in at most m hops (including i)."""
    i, m = _integer("i", i), _integer("m", m, 0)
    if not (0 <= i < g.n):
        raise ValueError(f"node {i} out of range for n={g.n}")
    seed = np.arange(g.n)[:, None] == i
    reach = _flood(_in_layout(g.n, *_reversed(*g.edge_arrays)), seed, limit=m)[1]
    return frozenset(np.flatnonzero(np.unpackbits(reach, axis=1, count=1)).tolist())


def generate_digraph(n: int, model: str = "erdos_renyi", seed: int = 0,
                     edge_prob: float = 0.5) -> DiGraph:
    """Build a strongly connected digraph with self-loops.

    erdos_renyi draws each off-diagonal directed link independently with
    probability edge_prob and rejection-samples until strongly connected
    (at most 1000 attempts, then an error: the budget failing means the
    probability is too small for this n), each draw judged by the diameter
    flood its construction runs. ring is the directed n-cycle, complete has
    every ordered pair. Identical (n, model, seed, edge_prob) always yields
    an identical graph.
    """
    n = _integer("n", n)
    if n < 1:
        raise ValueError(f"need at least one node, got n={n}")
    seed = _integer("seed", seed, 0)
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
        # mask[a, b] True means a sends to b, i.e. edge pair (b, a)
        mask = rng.random((n, n)) < edge_prob
        np.fill_diagonal(mask, True)
        try:
            return DiGraph(n, np.argwhere(mask.T), seed=seed, model=model)
        except ValueError:
            # a draw's edges are in range and include every self-loop, so
            # only the strong-connectivity check can reject it
            continue
    raise RuntimeError(
        f"no strongly connected draw in 1000 attempts (n={n}, edge_prob={edge_prob}); "
        "raise edge_prob")


@dataclass(frozen=True)
class StochasticMatrix:
    """Positive weights on a graph's edges, stored once, one per edge.

    edge_weights[e] is the weight src[e] gives dst[e], for (dst, src) =
    graph.edge_arrays; off the edges the weight is zero. kind "column"
    normalizes each sender's weights to 1 (push-sum splitting), kind "row"
    each receiver's (averaging); there is no dense view. slot_weights, the
    weights in the graph's in-layout slot order, is built on first use.
    """

    kind: str
    edge_weights: np.ndarray
    graph: DiGraph

    def __post_init__(self):
        if self.kind not in ("column", "row"):
            raise ValueError(f"kind must be 'column' or 'row', got {self.kind!r}")
        dst, src = self.graph.edge_arrays
        ew = np.array(self.edge_weights, dtype=float)
        if ew.shape != dst.shape:
            raise ValueError(f"weight shape {ew.shape} does not match the {dst.size} edges")
        if not np.isfinite(ew).all():
            raise ValueError("weights must be finite")
        # every node has its self-loop, so this also makes the diagonal positive
        if (ew <= 0).any():
            raise ValueError("edge weights must be strictly positive")
        end = src if self.kind == "column" else dst
        dev = np.abs(np.bincount(end, ew, minlength=self.graph.n) - 1.0).max()
        if dev > 1e-12:
            raise ValueError(f"{self.kind} sums deviate from 1 by {dev:.3e}")
        ew.setflags(write=False)
        object.__setattr__(self, "edge_weights", ew)

    @cached_property
    def slot_weights(self) -> np.ndarray:
        """edge_weights in the in-layout's slot order, read-only."""
        w = self.edge_weights[_slot_order(self.graph.n, self.graph.edge_arrays[0])[0]]
        w.setflags(write=False)
        return w


def make_weights(g: DiGraph, kind: str) -> StochasticMatrix:
    """Equal-splitting weights: column kind gives each sender's out-edges
    weight 1/out_degree, row kind gives each receiver's in-edges weight
    1/in_degree. Self-loops keep every diagonal entry positive."""
    dst, src = g.edge_arrays
    end = src if kind == "column" else dst  # the constructor rejects another kind
    return StochasticMatrix(kind, 1.0 / np.bincount(end, minlength=g.n)[end], g)


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
