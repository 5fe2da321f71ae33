"""Directed communication graphs, structural queries, and stochastic weights.

Edge convention: the ordered pair (i, j) is an edge meaning node j can send
to node i. in_adj[i] therefore lists the senders feeding node i and
out_adj[j] lists the receivers fed by node j. Self-loops are mandatory at
every node and every graph must be strongly connected; both properties are
checked at construction time.

Every per-node reduction over senders goes through the graph's in-layout
(_InLayout), chosen once at construction, and through one of two kernels:
_in_sum for weighted sums of the rows of one (c, n) array and _in_reduce for
maximum, minimum and bitwise_or.
- Every in-degree equal to K (n*K == E: rings, complete graphs): a read-only
  (K, n) table of sender ids, column i holding i's K senders in ascending
  order. _in_sum adds one table row at a time across all c rows, then
  + 0.0; _in_reduce is ufunc.reduce over the table axis.
- Otherwise: the receiver-sorted edge arrays. _in_sum is one np.bincount per
  row of its (c, n) array, _in_reduce is ufunc.reduceat at the receiver
  offsets.
Both layouts give the same bytes: both combine a receiver's terms in
ascending sender order, and the trailing + 0.0 turns a -0.0 total into
+0.0, as bincount's 0.0 start does. A graph with unequal in-degrees keeps
the edge arrays rather than padding short columns: padding was measured
slower on the stop_er1000 bench graph, and a zero-weight pad slot would turn
an inf into NaN.
Every traversal (strong connectivity, the diameter, m-hop in-neighborhoods)
is one packed-bit flood, _flood: each node holds a row of np.packbits bits
and each round ORs into it the rows of its senders through _in_reduce.
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
    """How each receiver reaches its senders' values: gather values[send]
    (next to the receiver's own values[recv]) and reduce over axis 0 with
    _in_reduce. The edge layout has recv, send = the receiver-sorted edge
    arrays and starts = each receiver's first edge; the table layout has
    the (K, n) table as send, recv = arange(n) as a (1, n) row, and
    starts = None."""

    recv: np.ndarray
    send: np.ndarray
    starts: np.ndarray | None


def _in_layout(n, recv, send) -> _InLayout:
    """The table layout when every in-degree is equal, else the edge layout,
    for the receiver-sorted edge arrays (recv, send) that include every
    self-loop."""
    deg = np.bincount(recv, minlength=n)
    if (deg != deg[0]).any():
        starts = np.cumsum(deg) - deg
        starts.setflags(write=False)
        return _InLayout(recv, send, starts)
    own = np.arange(n)[None, :]
    own.setflags(write=False)
    # a view of the read-only send, so read-only too
    return _InLayout(own, send.reshape(n, deg[0]).T, None)


def _in_sum(W, X):
    """Per receiver, the sum over its senders of W's weight times each of the
    c rows of the (c, n) array X at the sender, as one (n, c) array; terms
    are added in ascending sender order, exactly like an unbuffered
    scatter-add. On the edge layout that is np.bincount per row of X. On the
    table layout it is one table row at a time across all of X, then + 0.0
    (see the module docstring for why the bytes are equal). np.add.reduceat
    was measured not to be bit-identical, and one
    (wk * X[:, table]).sum(axis=1) raised the stop_ring bench's peak memory
    by 12%, so neither is used."""
    layout, wk = W.graph.in_layout, W.slot_weights
    if layout.starts is not None:
        # stacked as rows and returned transposed, so each column stays
        # contiguous for the next step's gathers: this measured faster than
        # np.column_stack
        return np.array([np.bincount(layout.recv, wk * col[layout.send], minlength=W.graph.n)
                         for col in X]).T
    table = layout.send
    acc = X[:, table[0]]
    acc *= wk[0]
    for k in range(1, len(table)):
        t = X[:, table[k]]
        t *= wk[k]
        acc += t
    acc += 0.0
    return acc.T


def _in_reduce(ufunc, per_slot, layout):
    """ufunc (maximum, minimum, bitwise_or) over each receiver's values
    per_slot, gathered through layout.send (and recv): ufunc.reduce over the
    table axis, or ufunc.reduceat at the receiver offsets. Every receiver has
    its self-loop, so none is empty."""
    if layout.starts is None:
        return ufunc.reduce(per_slot, axis=0)
    return ufunc.reduceat(per_slot, layout.starts, axis=0)


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
        nxt = _in_reduce(np.bitwise_or, reach[layout.send], layout)
        if np.array_equal(nxt, reach):
            return -1, reach
        reach = nxt
        rounds += 1
    return rounds, reach


def _strongly_connected(n, dst, src, layout):
    """Whether node 0 reaches every node and every node reaches node 0,
    for receiver-sorted edge arrays that include every self-loop and their
    in-layout."""
    seed = np.arange(n)[:, None] == 0
    return (_flood(layout, seed)[0] >= 0
            and _flood(_in_layout(n, *_reversed(dst, src)), seed)[0] >= 0)


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
        layout = _in_layout(n, dst, src)
        if not _strongly_connected(n, dst, src, layout):
            raise ValueError("graph is not strongly connected")
        object.__setattr__(self, "edges", tuple(zip(dst.tolist(), src.tolist())))
        object.__setattr__(self, "edge_arrays", (dst, src))
        object.__setattr__(self, "in_layout", layout)

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
    probability is too small for this n). ring is the directed n-cycle,
    complete has every ordered pair. Identical (n, model, seed, edge_prob)
    always yields an identical graph.
    """
    n = _integer("n", n)
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
    each receiver's (averaging); there is no dense view. slot_weights is
    the weight of each slot of the graph's in-layout, a (K, n) view in
    table order on the table layout; it is built on first use.
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
        """The weight of each slot of the graph's in-layout: edge_weights on
        the edge layout; on the table layout, the read-only (K, n) view
        slot_weights[k, i] = the weight table[k, i] gives i."""
        layout = self.graph.in_layout
        if layout.starts is not None:
            return self.edge_weights
        return self.edge_weights.reshape(layout.send.T.shape).T


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
