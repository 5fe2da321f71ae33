"""Distributed finite-time stopping for consensus runs.

The radius protocol keeps one scalar per node: each step a node takes, over
its senders, the largest (distance from its new state to the sender's
previous state) plus the sender's previous radius. Accumulated over a
window of at least diameter-many steps, that scalar bounds the distance
from the node's current state to every node's window-start state, so a
small radius certifies that all states sit inside a small ball. A one-bit
OR flood then lets every node learn about a detection within one more
window, which makes the final halt simultaneous.

The box protocol floods coordinatewise min/max envelopes of the window
start states instead, and the hull protocol runs hull consensus on them;
both reach the exact global quantity after a window, at a higher per-edge
bandwidth. Each is a consensus._Rule run by the one step loop,
consensus._run_windows, which returns the one run record, StopTrace.

The per-step maxima and minima (the radius and bit steps, the box
envelopes) run over the graph's slot-major in-layout through its one
gather-and-fold helper, graph._in_fold, each receiver taking its senders
in ascending order; the bit step and the envelopes fold the gathered rows
themselves. The helper gathers rows with ndarray.take from the engines'
C-ordered states one group of slots at a time; the radius step subtracts
each group's rows from the ranked receiver rows slot by slot, in place,
and squares (or takes the abs of) that difference in place for its norm,
so it holds about one group's (rows, d) array at its peak, however many
edges the graph has; the public radius_step never writes its inputs. The
bit step is the identity when all bits are 0 (every window before the
first detection) or all are 1: every node has its self-loop, so an OR
over equal bits changes none of them.

The public radius_step and bit_step check their input, then run the
kernels _radius and _bits. consensus._run_windows checks rho and p once,
and the rules call the kernels directly on the engine's states, by the
layout cuts (graph._InLayout.cut) each rule resolves for its arrays when
it is made or a window begins, never per step. _bits returns its own
input when the bits are equal, which is safe because no rule writes
into its bits in place; bit_step returns a copy.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .consensus import _CHUNK_ROWS, StopTrace, _NoStop, _Rule, _replay, _run_windows
# ratio_step stays bound here: bench/test_smoke.py patches termination.ratio_step
from .consensus import ratio_step  # noqa: F401
from .errors import InvariantViolation
from .geometry import PointSet, _norm, _norm_order, hull_diameter, vector_norm
from .graph import DiGraph, StochasticMatrix, _in_fold, _integer
from .hull import hull_round, HullNodeState

__all__ = [
    "MinMaxEnvelope",
    "radius_step",
    "bit_step",
    "minmax_envelope",
    "RadiusWindow",
    "BoxWindow",
    "HullWindow",
    "run_radius_stopping",
    "windowed_radius_trace",
    "run_box_stopping",
    "run_hull_stopping",
    "bandwidth_accounting",
    "write_termination_csv",
]


def radius_step(g: DiGraph, r_new, r_old, R_old, p: float = 2.0) -> np.ndarray:
    """R_i <- max over senders j of (||r_new_i - r_old_j||_p + R_old_j)."""
    r_new = np.asarray(r_new, dtype=float)
    r_old = np.asarray(r_old, dtype=float)
    R_old = np.asarray(R_old, dtype=float)
    if r_new.shape != r_old.shape or r_new.shape[0] != g.n or R_old.shape != (g.n,):
        raise ValueError(
            f"shape mismatch: r_new {r_new.shape}, r_old {r_old.shape}, R_old {R_old.shape}")
    return _radius(g.in_layout.cut(r_old, R_old), r_new, r_old, R_old, _norm_order(p))


def _radius(cut, r_new, r_old, R_old, p) -> np.ndarray:
    """radius_step's arithmetic on float arrays of checked shapes and a
    checked order p, through graph._in_fold by cut, the layout cut for
    r_old and R_old: per group, r_new at each slot's receiver minus the
    gathered r_old rows, in place, normed in place, plus the gathered
    R_old."""
    own = r_new if cut.ranked is None else r_new.take(cut.ranked, axis=0)

    def candidates(group, gaps, R):
        for start, m in group.slots:
            slot = gaps[start:start + m]
            np.subtract(own[:m], slot, out=slot)
        cand = _norm(gaps, p, scratch=True)
        cand += R
        return cand

    return _in_fold(np.maximum, cut, candidates, r_old, R_old)


def bit_step(g: DiGraph, b) -> np.ndarray:
    """One OR-flood round: b_i <- OR over senders j of b_j."""
    b = np.asarray(b, dtype=np.uint8)
    if b.shape != (g.n,):
        raise ValueError(f"bit vector shape {b.shape} does not match n={g.n}")
    out = _bits(g.in_layout.cut(b), b)
    return out.copy() if out is b else out


def _bits(cut, b) -> np.ndarray:
    """bit_step's arithmetic on a checked uint8 vector b, gathered by cut,
    the layout cut for b; b itself when all its bits are equal."""
    ones = np.count_nonzero(b)
    if ones == 0 or (ones == len(b) and np.maximum.reduce(b) == 1):
        # equal bits everywhere: with every self-loop, the OR is the identity
        return b
    return _in_fold(np.maximum, cut, None, b)


class MinMaxEnvelope(NamedTuple):
    M: np.ndarray
    m: np.ndarray


def minmax_envelope(states) -> MinMaxEnvelope:
    arr = np.asarray(states, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected (n, d) states, got shape {arr.shape}")
    return MinMaxEnvelope(arr.max(axis=0), arr.min(axis=0))


class RadiusWindow(NamedTuple):
    index: int
    start_t: int
    record_t: int
    rbar: np.ndarray
    detected: np.ndarray


class BoxWindow(NamedTuple):
    index: int
    start_t: int
    record_t: int
    spread: float


class HullWindow(NamedTuple):
    index: int
    start_t: int
    record_t: int
    diam: float


class _RadiusRule(_Rule):
    """Radius accumulation with the one-bit halt flood.

    The radius starts accumulating with the very first update (lag 1). At a
    boundary a node whose flooded bit is set stops; a bit set at one
    boundary floods the whole graph within the next window, so all nodes
    stop at the same iteration, and that is enforced. Otherwise the node
    records its accumulated radius: below rho it raises its bit and keeps
    accumulating, else it resets the accumulator for the next window.
    """

    lag = 1
    records = ("Rs", "bs", "xs", "ys")

    def __init__(self, g, rho, p):
        super().__init__(g, rho, p)
        self.Rs = np.zeros(g.n)
        self.bs = np.zeros(g.n, dtype=np.uint8)
        self.bits_cut = g.in_layout.cut(self.bs)

    def begin(self, cur):
        self.cut = self.g.in_layout.cut(cur, self.Rs)

    def step(self, prev, cur):
        self.Rs = _radius(self.cut, cur, prev, self.Rs, self.p)
        self.bs = _bits(self.bits_cut, self.bs)

    def boundary(self, index, start_t, t):
        if self.bs.any():
            if not self.bs.all():
                raise InvariantViolation(f"halt flags disagree at boundary t={t}")
            return None, True
        det = self.Rs < self.rho
        window = RadiusWindow(index, start_t, t, self.Rs, det)
        self.bs = det.astype(np.uint8)
        self.Rs = np.where(det, self.Rs, 0.0)
        return window, False


class _PlainRadiusRule(_Rule):
    """The radius recursion alone, reset every window: no bits, no halt.
    The run ends once the largest recorded radius drops below eps or
    max_windows windows are recorded."""

    halts = False

    def __init__(self, g, p, eps, max_windows):
        if eps is not None and not eps > 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if max_windows is not None:
            _integer("max_windows", max_windows, 1)
        super().__init__(g, None, p)
        self.eps, self.max_windows = eps, max_windows

    def begin(self, cur):
        self.R = np.zeros(self.g.n)
        self.cut = self.g.in_layout.cut(cur, self.R)

    def step(self, prev, cur):
        self.R = _radius(self.cut, cur, prev, self.R, self.p)

    def boundary(self, index, start_t, t):
        end = ((self.eps is not None and self.R.max() < self.eps)
               or (self.max_windows is not None and index + 1 >= self.max_windows))
        return RadiusWindow(index, start_t, t, self.R, None), end


class _BoxRule(_Rule):
    """Coordinatewise min/max envelopes of the window start states, flooded
    one hop per step."""

    def begin(self, cur):
        self.M = self.m = cur
        self.cut = self.g.in_layout.cut(cur)

    def step(self, prev, cur):
        self.M = _in_fold(np.maximum, self.cut, None, self.M)
        self.m = _in_fold(np.minimum, self.cut, None, self.m)

    def boundary(self, index, start_t, t):
        spreads = vector_norm(self.M - self.m, self.p, axis=-1)
        if not np.all(spreads == spreads[0]):
            raise InvariantViolation(f"envelope disagreement at boundary t={t}")
        spread = float(spreads[0])
        return BoxWindow(index, start_t, t, spread), spread < self.rho


class _HullRule(_Rule):
    """Hull consensus over the window start states, one round per step;
    max_points is the largest message seen, in points. Each round is a
    function of the nodes' current extreme sets alone (see hull_round)."""

    def __init__(self, g, rho, p):
        super().__init__(g, rho, p)
        self.max_points = 1

    def begin(self, cur):
        self.exts = [HullNodeState(PointSet(cur[i:i + 1])) for i in range(self.g.n)]

    def step(self, prev, cur):
        self.exts = hull_round(self.exts, self.g)
        self.max_points = max(self.max_points, max(len(s.ext) for s in self.exts))

    def boundary(self, index, start_t, t):
        first = self.exts[0].ext
        if any(s.ext != first for s in self.exts[1:]):
            raise InvariantViolation(f"extreme sets disagree at boundary t={t}")
        diam = hull_diameter(first, self.p)
        return HullWindow(index, start_t, t, diam), diam < self.rho


_RULES = {"radius": _RadiusRule, "box": _BoxRule, "hull": _HullRule, "none": _NoStop}


def run_radius_stopping(g: DiGraph, W: StochasticMatrix, x0, rho: float,
                        Dbound: int | None = None, p: float = 2.0,
                        k_max: int = 100_000, history: bool = False) -> StopTrace:
    """Consensus with the radius criterion and one-bit halt flooding.

    Window boundaries fall after every Dbound-th update, the first window
    carrying one extra step (see _RadiusRule). A non-halting run (k_max
    reached) is reported through halted=False, not an exception. Stored Rs
    and bs reflect the values carried into the next step, i.e. after any
    boundary bookkeeping. Every runner keeps only step 0, the last step
    and the last window unless history=True (see StopTrace), and rejects
    a g that is not W's graph with ValueError.
    """
    return _run_windows(_RadiusRule(g, rho, p), W, x0, Dbound, k_max, history)


def windowed_radius_trace(g: DiGraph, W: StochasticMatrix, x0,
                          Dbound: int | None = None, p: float = 2.0,
                          eps: float | None = None,
                          max_windows: int | None = None,
                          k_max: int = 100_000, history: bool = False) -> StopTrace:
    """Plain windowed radius recursion without bits or halting.

    Window l starts at iteration l*D and its radius is recorded at
    (l+1)*D after exactly D accumulation steps, which is the indexing the
    containment and envelope-bound properties are stated in. Runs until
    the largest recorded radius drops below eps, max_windows windows are
    recorded, or k_max iterations elapse. The windows have detected=None.
    """
    return _run_windows(_PlainRadiusRule(g, p, eps, max_windows), W, x0, Dbound, k_max,
                        history)


def run_box_stopping(g: DiGraph, W: StochasticMatrix, x0, rho: float,
                     Dbound: int | None = None, p: float = 2.0,
                     k_max: int = 100_000, history: bool = False) -> StopTrace:
    """Windowed min/max envelope flooding.

    Each window floods the coordinatewise extrema of the window-start
    states; after Dbound flood rounds every node holds the exact global
    envelope, so the halt decision is identical everywhere and takes
    effect at the boundary itself.
    """
    return _run_windows(_BoxRule(g, rho, p), W, x0, Dbound, k_max, history)


def run_hull_stopping(g: DiGraph, W: StochasticMatrix, x0, rho: float,
                      Dbound: int | None = None, p: float = 2.0,
                      k_max: int = 100_000, history: bool = False) -> StopTrace:
    """Windowed hull consensus over the window-start states.

    After Dbound rounds every node holds the extreme set of all window
    start states; the halt fires once its diameter drops below rho. The
    largest message size seen (in points) is tracked for bandwidth
    accounting.
    """
    return _run_windows(_HullRule(g, rho, p), W, x0, Dbound, k_max, history)


def bandwidth_accounting(method: str, B: int = 32, d: int | None = None,
                         hull_size: int | None = None) -> int:
    """Extra bits per neighbor interaction on top of the consensus payload:
    radius = B + 1 (one float plus the halt bit), box = 2*B*d (two
    envelope vectors), hull = B*d*hull_size (a full extreme set)."""
    B = _integer("B", B, 1)
    if method == "radius":
        return B + 1
    if d is None:
        raise ValueError(f"method {method!r} needs a dimension d >= 1")
    d = _integer("d", d, 1)
    if method == "box":
        return 2 * B * d
    if method == "hull":
        if hull_size is None:
            raise ValueError("hull accounting needs the message size in points")
        return B * d * _integer("hull_size", hull_size, 1)
    raise ValueError(f"unknown method {method!r}")


_TERMINATION_HEADER = "k,node,R,b,window_l,halt_flag"


class _TerminationRows:
    """termination.csv's one per-step formatter, a sink of
    consensus._run_windows for the radius rule. It writes the header to fh;
    each call (k, row, halt) then writes step k's row (k, node, R, b,
    window_l, halt_flag) for each of the n nodes from the record's Rs and
    bs, R at 17 significant digits. window_l counts the window step k
    belongs to (D steps each, the first one step longer), and halt_flag
    marks the halt step.

    As in consensus._StateRows, the "node," prefixes are formatted once per
    file into one %-template per chunk of _CHUNK_ROWS rows, and k and the
    closing "window_l,halt_flag" once per step; the bytes are those of one
    "%d,%d,%.17g,%d,%d,%d" row format."""

    def __init__(self, fh, n: int, D: int):
        fh.write(_TERMINATION_HEADER + "\n")
        self.fh, self.D = fh, D
        self.starts = range(0, n, _CHUNK_ROWS)
        self.templates = ["".join(f"%s,{i},%.17g,%d,%s\n"
                                  for i in range(s, min(s + _CHUNK_ROWS, n)))
                          for s in self.starts]

    def __call__(self, k, row, halt):
        head = str(k)
        tail = f"{0 if k == 0 else (k - 1) // self.D + 1},{int(halt)}"
        R, b = row["Rs"].tolist(), row["bs"].tolist()
        for s, template in zip(self.starts, self.templates):
            self.fh.write(template % tuple(chain.from_iterable(
                zip(repeat(head), R[s:s + _CHUNK_ROWS], b[s:s + _CHUNK_ROWS], repeat(tail)))))


def write_termination_csv(trace: StopTrace, path):
    """Rows (k, node, R, b, window_l, halt_flag) of a radius-rule trace with
    history, replayed through _TerminationRows."""
    if trace.Rs is None:
        raise ValueError("termination.csv needs a radius-rule trace")
    records = _replay(trace, "write_termination_csv")
    with open(path, "w", newline="") as fh:
        rows = _TerminationRows(fh, len(trace.Rs[0]), trace.Dbound)
        for rec in records:
            rows(*rec)
