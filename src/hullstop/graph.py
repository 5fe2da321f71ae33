"""Directed communication graphs, structural queries, and stochastic weights.

Edge convention: the ordered pair (i, j) is an edge meaning node j can send
to node i. in_adj[i] therefore lists the senders feeding node i.
Self-loops are mandatory at every node and every graph must be strongly
connected; both properties are checked at construction time, strong
connectivity by the diameter's flood.

Every per-node reduction over senders goes through the graph's in-layout
(_InLayout), built once at construction in the jagged-diagonal form (Saad,
"Krylov subspace methods on supercomputers", SIAM J. Sci. Stat. Comput.
10(6), 1989). Receivers are ranked by descending in-degree, a stable sort,
so the ranking is the identity when every in-degree is equal (rings,
complete graphs). Slot k lists the (k+1)-th smallest sender of each of the
first m_k ranked receivers, the ones with more than k senders; every
receiver has its self-loop, so slot 0 covers all of them.

Every transient block takes its size from one byte budget, _BLOCK_BYTES
(128 KiB): the gather groups here, the row blocks of generate_digraph's
Erdos-Renyi draw and of geometry.pairwise_spread, and the read blocks of
consensus._state_blocks. A block holds at least one whole unit (a slot, a
row, a step), so memory stays flat in the edge count, the node count and
the step count. The layout is cut (_InLayout.cut) for the row width a
gather takes, the bytes per node of the arrays it gathers, into groups:
runs of whole consecutive slots whose gathered rows keep within the
budget, and at least one slot. A run resolves its cuts when its engine and
its rule are set up, so a step looks nothing up. One helper, _in_fold,
gathers and folds a cut one group at a time, so a step holds one group's
rows at a time, never one row per edge: a ring of up to 744 nodes and
d = 10 is one group. Per group it gathers each input's rows at the group's
senders with one ndarray.take and turns them into the group's terms;
slot 0's terms start a fresh accumulator and each later slot k is folded
into its first m_k rows in place, and one more take undoes the ranking.
Three kernels use it: _in_sum for weighted sums of the rows of an (n, c)
array (its terms are the rows scaled in place by the slot weights),
_in_reduce for maximum, minimum and bitwise_or, and the radius step in
termination. So each receiver combines its senders in ascending order from
its first term, with no pad slots, whatever the groups; the sum's closing
+ 0.0 turns a -0.0 total into +0.0 and changes nothing else, which gives
the bytes of a sum started at 0.0.
The diameter is one packed-bit flood, _flood: each node holds a row of
np.packbits bits, starting from a packed identity, and each round ORs into
it the rows of its senders through _in_reduce. So only a complete graph,
whose n * n edges it is, makes an (n, n) array at set-up: the Erdos-Renyi
draw is made in row blocks, and the flood's seeds are packed from the
start.
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
    "make_weights",
    "graph_to_json",
]

MODELS = ("erdos_renyi", "ring", "complete")
# edge pairs graph_to_json formats per %-template
_JSON_EDGES = 4096


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


# the bytes one transient block may hold: a gather group of _in_fold, a row
# block of generate_digraph's draw, of geometry.pairwise_spread's
# differences and a read block of consensus._state_blocks. A block holds at
# least one whole unit (a slot, a row, a step), so a unit larger than the
# budget is a block of its own.
_BLOCK_BYTES = 128 * 1024


class _Group(NamedTuple):
    """A run of whole consecutive slots of an in-layout: rows is its slice
    of the slot rows, send the senders at those rows (a read-only view) and
    slots the (offset, m) of each of its slots within the run."""

    rows: slice
    send: np.ndarray
    slots: tuple


class _Cut(NamedTuple):
    """An in-layout cut for gathers of one row width: groups lists its
    _Group runs in slot order, and ranked and rank are the layout's."""

    groups: tuple
    ranked: np.ndarray | None
    rank: np.ndarray | None


class _InLayout(NamedTuple):
    """A graph's in-adjacency slot by slot (the module docstring). Slot k
    holds the (k+1)-th smallest sender of each of the first m_k ranked
    receivers; send lists the slots one after another, and blocks gives
    each slot's (start, m_k) there. ranked lists the receivers by rank and
    rank gives each receiver's rank; both are None when the ranking is the
    identity. The arrays are read-only. budget is _BLOCK_BYTES as it was
    when the layout was built, and cuts keeps each _Cut that cut() made."""

    send: np.ndarray
    ranked: np.ndarray | None
    rank: np.ndarray | None
    blocks: tuple
    budget: int
    cuts: dict

    def cut(self, *values) -> _Cut:
        """The layout cut for gathering the rows of the (n, ...) arrays
        values together: runs of whole consecutive slots, each as long as
        the next slot keeps its rows' bytes within budget, and at least one
        slot. Each width is cut once; a run resolves its cuts when it sets
        up, not per step."""
        width = sum(v.nbytes for v in values) // len(values[0])
        cut = self.cuts.get(width)
        if cut is None:
            cap = self.budget // max(1, width)
            runs = [[]]
            for start, m in self.blocks:
                if runs[-1] and start + m - runs[-1][0][0] > cap:
                    runs.append([])
                runs[-1].append((start, m))
            groups = []
            for run in runs:
                a, b = run[0][0], run[-1][0] + run[-1][1]
                groups.append(_Group(slice(a, b), self.send[a:b],
                                     tuple((s - a, m) for s, m in run)))
            cut = self.cuts[width] = _Cut(tuple(groups), self.ranked, self.rank)
        return cut


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
    order, ranked, rank, blocks = _slot_order(n, recv)
    send = send[order]
    send.setflags(write=False)
    return _InLayout(send, ranked, rank, blocks, _BLOCK_BYTES, {})


def _in_fold(ufunc, cut, terms, *values):
    """ufunc (add, maximum, minimum, bitwise_or) folded over each
    receiver's per-sender terms in ascending sender order from the first,
    as a fresh array in node order. Group by group of cut, the layout cut
    for the values (_InLayout.cut), each of the (n, ...) values is gathered
    at the group's senders with one take, and terms(group, *rows) returns
    the group's terms, an array of its own that the fold may write; with
    terms None the one value's rows are the terms. The accumulator starts
    as the group itself when it is slot 0 alone, else as a fresh array, so
    no group outlives its fold: ufunc of slots 0 and 1 when slot 1 holds
    every receiver, as on every strongly connected graph of two or more
    nodes, else a copy of slot 0."""
    n = len(values[0])
    acc = None
    for group in cut.groups:
        if terms is None:
            t = values[0].take(group.send, axis=0)
        else:
            t = terms(group, *[v.take(group.send, axis=0) for v in values])
        slots = group.slots
        if acc is None:
            if len(t) == n:
                acc, slots = t, ()
            elif slots[1][1] == n:
                acc, slots = ufunc(t[:n], t[n:2 * n]), slots[2:]
            else:
                acc, slots = t[:n].copy(), slots[1:]
        for start, m in slots:
            head = acc[:m]
            ufunc(head, t[start:start + m], out=head)
        del t  # before the next group's gather
    return acc if cut.rank is None else acc.take(cut.rank, axis=0)


def _in_sum(W, X, cut):
    """Per receiver, the sum over its senders of W's weight times the
    sender's row of the (n, c) array X, as a fresh C-ordered (n, c) array,
    gathered by cut, W's graph's layout cut for X. Terms are added in
    ascending sender order from the first, and the closing + 0.0 gives the
    bytes of a sum started at 0.0 (the module docstring)."""
    def scaled(group, rows):
        rows *= W.slot_weights[group.rows, None]
        return rows

    out = _in_fold(np.add, cut, scaled, X)
    out += 0.0
    return out


def _in_reduce(ufunc, values, cut):
    """ufunc (maximum, minimum, bitwise_or) over the rows of the (n, ...)
    values at each receiver's senders, in ascending sender order, gathered
    by cut, the layout cut for values."""
    return _in_fold(ufunc, cut, None, values)


def _flood(layout, n) -> int:
    """OR-flood each node's own bit along the edges of layout until every
    node holds every bit.

    reach is an (n, ceil(n/8)) np.packbits matrix whose row v holds the
    bits of the nodes heard by v so far, built as the packed identity, and
    each round ORs the rows of v's senders into it. Every receiver hears
    its own self-loop, so a node never loses a bit. The bits stay packed:
    an unpacked per-edge gather would cost n bytes per edge, and an
    unpacked identity n bytes per node. Returns the number of rounds until
    every bit is set, or -1 when a round changes nothing first.
    """
    v = np.arange(n)
    reach = np.zeros((n, -(-n // 8)), dtype=np.uint8)
    reach[v, v >> 3] = 0x80 >> (v & 7)  # np.packbits puts bit 0 highest
    full = np.packbits(np.ones(n, dtype=bool))
    cut = layout.cut(reach)
    rounds = 0
    while not (reach == full).all():
        nxt = _in_reduce(np.bitwise_or, reach, cut)
        if np.array_equal(nxt, reach):
            return -1
        reach = nxt
        rounds += 1
    return rounds


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
    def diameter(self) -> int:
        """Longest shortest directed path over all ordered node pairs: the
        rounds until every node has heard every other, flooding from the
        identity; -1, which construction rejects, when the flood stalls
        because the graph is not strongly connected."""
        return _flood(self.in_layout, self.n)


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
        try:
            return DiGraph(n, _er_draw(rng, n, edge_prob), seed=seed, model=model)
        except ValueError:
            # a draw's edges are in range and include every self-loop, so
            # only the strong-connectivity check can reject it
            continue
    raise RuntimeError(
        f"no strongly connected draw in 1000 attempts (n={n}, edge_prob={edge_prob}); "
        "raise edge_prob")


def _er_draw(rng, n, edge_prob) -> np.ndarray:
    """One Erdos-Renyi draw as (receiver, sender) pairs, self-loops
    included: a sends to b when entry [a, b] of the draw rng.random((n, n))
    is below edge_prob. The draw is made in row blocks of at most
    _BLOCK_BYTES, which gives the same numbers, leaves rng in the same
    state, and takes each block's edges as it is drawn, so no (n, n) array
    is made."""
    rows = max(1, _BLOCK_BYTES // (8 * n))
    pairs = []
    for s in range(0, n, rows):
        mask = rng.random((min(rows, n - s), n)) < edge_prob
        i = np.arange(len(mask))
        mask[i, s + i] = True
        a, b = np.nonzero(mask)
        pairs.append(np.column_stack((b, a + s)))
    return np.concatenate(pairs)


@dataclass(frozen=True)
class StochasticMatrix:
    """Positive weights on a graph's edges, stored once, one per edge.

    edge_weights[e] is the weight src[e] gives dst[e], for (dst, src) =
    graph.edge_arrays; off the edges the weight is zero. kind "column"
    normalizes each sender's weights to 1 (push-sum splitting), kind "row"
    each receiver's (averaging); there is no dense view. slot_weights, the
    weights in the graph's in-layout slot order, is built here, before any
    step: the graph keeps no edge-length slot order to build it from.
    """

    kind: str
    edge_weights: np.ndarray
    graph: DiGraph
    slot_weights: np.ndarray = field(init=False, repr=False, compare=False)

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
        slot = ew[_slot_order(self.graph.n, dst)[0]]
        slot.setflags(write=False)
        object.__setattr__(self, "slot_weights", slot)


def make_weights(g: DiGraph, kind: str) -> StochasticMatrix:
    """Equal-splitting weights: column kind gives each sender's out-edges
    weight 1/out_degree, row kind gives each receiver's in-edges weight
    1/in_degree. Self-loops keep every diagonal entry positive."""
    dst, src = g.edge_arrays
    end = src if kind == "column" else dst  # the constructor rejects another kind
    return StochasticMatrix(kind, 1.0 / np.bincount(end, minlength=g.n)[end], g)


def graph_to_json(g: DiGraph) -> str:
    """Serialize as {n, edges, seed, model}; edges in lexicographic order.
    The bytes are json.dumps's of that dict, with the edges formatted a
    chunk of _JSON_EDGES pairs at a time instead of as one list of lists."""
    pairs = np.column_stack(g.edge_arrays)
    edges = ", ".join(
        ", ".join(["[%d, %d]"] * len(chunk)) % tuple(chunk.ravel().tolist())
        for chunk in (pairs[s:s + _JSON_EDGES] for s in range(0, len(pairs), _JSON_EDGES)))
    return (f'{{"n": {json.dumps(g.n)}, "edges": [{edges}], '
            f'"seed": {json.dumps(g.seed)}, "model": {json.dumps(g.model)}}}')
