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
receiver has its self-loop, so slot 0 covers all of them. One map,
_InLayout.slotted, puts the senders and every StochasticMatrix's weights
in slot order a whole slot at a time, with no edge-length permutation.

Each edge is stored once. The layout's senders in slot order are the only
edge-length array a graph keeps: 8 bytes an edge, about 10 with the
layout's per-node tables. DiGraph.edge_arrays rebuilds the receiver-sorted
(dst, src) from them on each read, dst from the in-degrees with np.repeat
and src by _InLayout.unslotted, slotted's inverse; nothing caches them. A
StochasticMatrix keeps its edge weights, 8 bytes an edge more (18 with its
graph), and its per-sender weights when it has them; it builds its slot
weights when a step first reads them, which only a weighted sum without
per-sender weights does (_in_sum). make_weights and the matrix's checks
rebuild one edge end at a time, never dst and src together.

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
_in_sum, the weighted sum of the rows of an (n, c) array, scales the (n, c)
rows once by the per-sender weights when every sender gives all its
out-edges one weight (push-sum's equal split, Kempe, Dobra and Gehrke,
FOCS 2003) and folds the gathered products, and otherwise scales the
gathered rows in place by the slot weights; either way each term is the
same product of the same two doubles. The radius step in termination
makes its own terms, and every maximum, minimum and bitwise_or folds the
gathered rows themselves. So each receiver combines its senders in
ascending order from its first term, with no pad slots, whatever the
groups; the sum's closing + 0.0 turns a -0.0 total into +0.0 and changes
nothing else, which gives the bytes of a sum started at 0.0.
The diameter is one packed-bit flood, _flood: each node holds a row of
np.packbits bits, starting from a packed identity, and each round ORs into
it the rows of its senders through _in_fold. So only a complete graph,
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
    of the slot rows, send the senders at those rows and slots the
    (offset, m) of each of its slots within the run. send views the
    writeable array behind the layout's read-only send, because
    ndarray.take copies an index that is not writeable before it gathers;
    no step writes it."""

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
    identity. heads gives each ranked receiver's first edge in the
    receiver-sorted edge arrays. The arrays are read-only; send is a view of
    a writeable array, its base, which the groups of a cut view. budget is
    _BLOCK_BYTES as it was when the layout was built, and cuts keeps each
    _Cut that cut() made."""

    send: np.ndarray
    ranked: np.ndarray | None
    rank: np.ndarray | None
    heads: np.ndarray
    blocks: tuple
    budget: int
    cuts: dict

    def slotted(self, values) -> np.ndarray:
        """The receiver-sorted per-edge array values in slot order, as a
        read-only view of a fresh array, filled a whole slot at a time:
        slot k of the i-th ranked receiver is edge heads[i] + k."""
        out = np.empty_like(values)
        for k, (start, m) in enumerate(self.blocks):
            values.take(self.heads[:m] + k, out=out[start:start + m])
        view = out.view()
        view.setflags(write=False)
        return view

    def unslotted(self, values) -> np.ndarray:
        """The inverse of slotted: the slot-ordered per-edge array values
        back in receiver-sorted edge order, as a fresh array, filled a
        whole slot at a time."""
        out = np.empty_like(values)
        for k, (start, m) in enumerate(self.blocks):
            out[self.heads[:m] + k] = values[start:start + m]
        return out

    def receivers(self) -> np.ndarray:
        """The receiver of each edge in receiver-sorted edge order, as a
        fresh array: each node repeated by its in-degree."""
        heads = self.heads if self.rank is None else self.heads[self.rank]
        return np.repeat(np.arange(len(heads)), np.diff(heads, append=len(self.send)))

    def same_edges(self, other) -> bool:
        """Whether the layout other holds the same edges: the same node
        count, slot blocks, ranking and senders in slot order."""
        return (len(self.heads) == len(other.heads) and self.blocks == other.blocks
                and (self.ranked is None) == (other.ranked is None)
                and (self.ranked is None or np.array_equal(self.ranked, other.ranked))
                and np.array_equal(self.send, other.send))

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
            send = self.send.base
            for run in runs:
                a, b = run[0][0], run[-1][0] + run[-1][1]
                groups.append(_Group(slice(a, b), send[a:b],
                                     tuple((s - a, m) for s, m in run)))
            cut = self.cuts[width] = _Cut(tuple(groups), self.ranked, self.rank)
        return cut


def _in_layout(n, recv, send) -> _InLayout:
    """The in-layout of the receiver-sorted edge arrays (recv, send) that
    include every self-loop."""
    deg = np.bincount(recv, minlength=n)
    ranked = np.argsort(-deg, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[ranked] = np.arange(n)
    heads = (np.cumsum(deg) - deg)[ranked]
    # m[k]: the receivers with more than k senders, the first m[k] ranked
    m = n - np.cumsum(np.bincount(deg))[:-1]
    blocks = tuple(zip((np.cumsum(m) - m).tolist(), m.tolist()))
    for a in (ranked, rank, heads):
        a.setflags(write=False)
    if (deg[1:] <= deg[:-1]).all():
        ranked = rank = None
    layout = _InLayout(None, ranked, rank, heads, blocks, _BLOCK_BYTES, {})
    return layout._replace(send=layout.slotted(send))


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
    nodes, else a copy of slot 0, which only _flood reaches: on Erdos-Renyi
    draws that are not strongly connected."""
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
    gathered by cut, W's graph's layout cut for X. With W's per-sender
    weights, X is scaled once, row by row, and the products gathered;
    without them each group's gathered rows are scaled in place by their
    slot weights. Terms are added in ascending sender order from the first,
    and the closing + 0.0 gives the bytes of a sum started at 0.0 (the
    module docstring)."""
    if W.sender_weights is not None:
        out = _in_fold(np.add, cut, None, X * W.sender_weights[:, None])
    else:
        def scaled(group, rows):
            rows *= W.slot_weights[group.rows, None]
            return rows

        out = _in_fold(np.add, cut, scaled, X)
    out += 0.0
    return out


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
        nxt = _in_fold(np.bitwise_or, cut, None, reach)
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
    (E, 2) integer array, in any order and with repeats. Built here, the
    graph stores its edges once, as its in-layout's senders in slot order,
    8 bytes an edge and about 10 with the per-node tables of the layout;
    it caches no other edge-length array. edge_arrays rebuilds the (dst,
    src) pair from the layout on each read, and g.edges, their sorted tuple
    of Python int pairs (about 67 bytes an edge), is built from them when
    first read. seed and model are provenance metadata kept so a graph can
    be serialized reproducibly; they are optional for hand-built graphs.
    Construction computes the diameter to check strong connectivity, so
    reading g.diameter later floods nothing.
    """

    n: int
    edges: tuple
    seed: int | None = None
    model: str | None = None
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
        dst, src = np.divmod(np.unique(pairs[:, 0] * n + pairs[:, 1]), n)
        looped = np.zeros(n, dtype=bool)
        looped[dst[dst == src]] = True
        if not looped.all():
            raise ValueError(f"node {looped.argmin()} is missing its self-loop")
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

    @property
    def edge_arrays(self) -> tuple:
        """(dst, src): fresh read-only intp arrays over the edges sorted by
        (receiver, sender), rebuilt from the in-layout on each read, dst
        from the in-degrees and src by un-slotting the senders. This fixed
        ordering is what makes every per-node reduction in the engines run
        over ascending sender index, the determinism contract."""
        layout = self.in_layout
        pair = layout.receivers(), layout.unslotted(layout.send)
        for a in pair:
            a.setflags(write=False)
        return pair

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
    each receiver's (averaging); there is no dense view. Built here, before
    any step, a matrix holds its read-only edge weights and sender_weights:
    per sender, the one weight it gives every out-edge, its self-loop's,
    when that holds bit for bit, as for make_weights' column kind, or for
    its row kind when every in-degree is equal; else None. With the graph's
    senders that is 18 bytes an edge. slot_weights, the weights in the
    graph's in-layout slot order, put there by the layout's own map
    (_InLayout.slotted), is built when first read, by the only step that
    needs it: a weighted sum without sender_weights (_in_sum). A matrix is
    a record, like its graph: two are equal, and hash alike, when their
    kind, graph and edge weight bytes are; the derived forms take no part.
    """

    kind: str
    edge_weights: np.ndarray
    graph: DiGraph
    sender_weights: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("column", "row"):
            raise ValueError(f"kind must be 'column' or 'row', got {self.kind!r}")
        layout = self.graph.in_layout
        ew = np.array(self.edge_weights, dtype=float)
        if ew.shape != layout.send.shape:
            raise ValueError(f"weight shape {ew.shape} does not match the {layout.send.size} edges")
        if not np.isfinite(ew).all():
            raise ValueError("weights must be finite")
        # every node has its self-loop, so this also makes the diagonal positive
        if (ew <= 0).any():
            raise ValueError("edge weights must be strictly positive")
        end = _weight_ends(layout, self.kind)
        dev = np.abs(np.bincount(end, ew, minlength=self.graph.n) - 1.0).max()
        if dev > 1e-12:
            raise ValueError(f"{self.kind} sums deviate from 1 by {dev:.3e}")
        if self.kind == "row":
            del end  # the receivers go before the senders are rebuilt
            end = layout.unslotted(layout.send)
        ew.setflags(write=False)
        object.__setattr__(self, "edge_weights", ew)
        object.__setattr__(self, "sender_weights", _sender_weights(end, ew, self.graph.n))

    @cached_property
    def slot_weights(self) -> np.ndarray:
        """The edge weights in the graph's in-layout slot order, read-only."""
        return self.graph.in_layout.slotted(self.edge_weights)

    def _record(self):
        return self.kind, self.graph, self.edge_weights.tobytes()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._record() == other._record()

    def __hash__(self):
        return hash(self._record())


def _weight_ends(layout, kind) -> np.ndarray:
    """The edge ends whose weights kind normalizes, in receiver-sorted edge
    order: the senders for column weights, the receivers for row weights."""
    return layout.unslotted(layout.send) if kind == "column" else layout.receivers()


def _sender_weights(src, ew, n) -> np.ndarray | None:
    """Per sender, the one weight it gives every out-edge, as a read-only
    array, or None when some sender gives two. src and ew are the senders
    and weights in receiver-sorted edge order, compared a block of
    _BLOCK_BYTES weights at a time. The weights are positive and finite, so
    equal values are equal bits, and any out-edge's weight is the
    self-loop's."""
    own = np.empty(n)
    own[src] = ew
    step = max(1, _BLOCK_BYTES // ew.itemsize)
    for s in range(0, len(ew), step):
        if not np.array_equal(own[src[s:s + step]], ew[s:s + step]):
            return None
    own.setflags(write=False)
    return own


def make_weights(g: DiGraph, kind: str) -> StochasticMatrix:
    """Equal-splitting weights: column kind gives each sender's out-edges
    weight 1/out_degree, row kind gives each receiver's in-edges weight
    1/in_degree. Self-loops keep every diagonal entry positive."""
    end = _weight_ends(g.in_layout, kind)  # the constructor rejects another kind
    w = (1.0 / np.bincount(end, minlength=g.n))[end]
    del end
    return StochasticMatrix(kind, w, g)


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
