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
bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .consensus import (RatioState, RowState, _csv_table, _finite_states, make_ratio_state,
                        ratio_step, row_step)
from .errors import InvariantViolation
from .geometry import PointSet, hull_diameter, vector_norm
from .graph import DiGraph, StochasticMatrix
from .hull import hull_round, HullNodeState

__all__ = [
    "MinMaxEnvelope",
    "radius_step",
    "bit_step",
    "minmax_envelope",
    "box_criterion",
    "RadiusWindow",
    "BoxWindow",
    "HullWindow",
    "RadiusTrace",
    "BoxTrace",
    "HullStopTrace",
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
    dst, src = g.edge_arrays
    cand = vector_norm(r_new[dst] - r_old[src], p, axis=-1) + R_old[src]
    out = np.full(g.n, -np.inf)
    np.maximum.at(out, dst, cand)
    return out


def bit_step(g: DiGraph, b) -> np.ndarray:
    """One OR-flood round: b_i <- OR over senders j of b_j."""
    b = np.asarray(b, dtype=np.uint8)
    if b.shape != (g.n,):
        raise ValueError(f"bit vector shape {b.shape} does not match n={g.n}")
    dst, src = g.edge_arrays
    out = np.zeros(g.n, dtype=np.uint8)
    np.maximum.at(out, dst, b[src])
    return out


class MinMaxEnvelope(NamedTuple):
    M: np.ndarray
    m: np.ndarray
    k: int


def minmax_envelope(states, k: int = 0) -> MinMaxEnvelope:
    arr = np.asarray(states, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected (n, d) states, got shape {arr.shape}")
    return MinMaxEnvelope(arr.max(axis=0), arr.min(axis=0), k)


def box_criterion(states, rho: float, p: float = 2.0) -> bool:
    """True when the envelope spread ||M - m||_p drops below rho."""
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    env = minmax_envelope(states)
    return bool(vector_norm(env.M - env.m, p, axis=-1) < rho)


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


@dataclass
class RadiusTrace:
    engine: str
    rs: np.ndarray        # (T+1, n, d) states per step
    xs: np.ndarray | None
    ys: np.ndarray | None
    Rs: np.ndarray        # (T+1, n) radius accumulators after bookkeeping
    bs: np.ndarray        # (T+1, n) halt bits after bookkeeping
    windows: list
    halted: bool
    halt_t: int | None
    rho: float
    Dbound: int
    p: float


@dataclass
class BoxTrace:
    engine: str
    rs: np.ndarray
    windows: list
    halted: bool
    halt_t: int | None
    rho: float
    Dbound: int
    p: float


@dataclass
class HullStopTrace:
    engine: str
    rs: np.ndarray
    windows: list
    halted: bool
    halt_t: int | None
    rho: float
    Dbound: int
    p: float
    max_points: int


class _Engine:
    """Uniform stepping over the two consensus engines."""

    def __init__(self, W: StochasticMatrix, x0):
        self.W = W
        x0 = _finite_states(x0)
        if x0.shape[0] != W.graph.n:
            raise ValueError(f"initial states must be ({W.graph.n}, d), got {x0.shape}")
        if W.kind == "column":
            self.name = "ratio"
            self.state: RatioState | RowState = make_ratio_state(x0)
        else:
            self.name = "row"
            self.state = RowState(x0)

    @property
    def cur(self) -> np.ndarray:
        return self.state.r if self.name == "ratio" else self.state.z

    def step(self):
        if self.name == "ratio":
            self.state = ratio_step(self.state, self.W)
        else:
            self.state = row_step(self.state, self.W)


def _resolve_window(g: DiGraph, Dbound) -> int:
    D = max(1, g.diameter) if Dbound is None else int(Dbound)
    if D < 1:
        raise ValueError(f"window length must be >= 1, got {D}")
    if D < g.diameter:
        raise ValueError(f"window length {D} is below the graph diameter {g.diameter}")
    return D


def run_radius_stopping(g: DiGraph, W: StochasticMatrix, x0, rho: float,
                        Dbound: int | None = None, p: float = 2.0,
                        k_max: int = 100_000) -> RadiusTrace:
    """Consensus with the radius criterion and one-bit halt flooding.

    Window boundaries fall after every Dbound-th update (the first window
    carries one extra step because the radius starts accumulating with the
    very first update). At a boundary a node whose flooded bit is set stops;
    since a bit set at one boundary floods the whole graph within the next
    window, all nodes stop at the same iteration, and that is enforced.
    Otherwise the node records its accumulated radius: below rho it raises
    its bit and keeps accumulating; else it resets the accumulator for the
    next window. A non-halting run (k_max reached) is reported through
    halted=False, not an exception.

    Stored Rs and bs reflect the values carried into the next step, i.e.
    after any boundary bookkeeping.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    D = _resolve_window(g, Dbound)
    eng = _Engine(W, x0)
    n = g.n
    R = np.zeros(n)
    b = np.zeros(n, dtype=np.uint8)
    rs = [eng.cur.copy()]
    xs = [eng.state.x.copy()] if eng.name == "ratio" else None
    ys = [eng.state.y.copy()] if eng.name == "ratio" else None
    Rs = [R.copy()]
    bs = [b.copy()]
    windows: list = []
    halted = False
    halt_t = None
    window_start = 0
    for t in range(1, k_max + 1):
        prev = eng.cur
        eng.step()
        cur = eng.cur
        R = radius_step(g, cur, prev, R, p)
        b = bit_step(g, b)
        if t > 1 and (t - 1) % D == 0:
            if b.any():
                if not b.all():
                    raise InvariantViolation(f"halt flags disagree at boundary t={t}")
                halted = True
                halt_t = t
            else:
                rbar = R.copy()
                det = rbar < rho
                windows.append(RadiusWindow((t - 1) // D, window_start, t, rbar, det))
                b = det.astype(np.uint8)
                R = np.where(det, R, 0.0)
                window_start = t
        rs.append(cur.copy())
        if eng.name == "ratio":
            xs.append(eng.state.x.copy())
            ys.append(eng.state.y.copy())
        Rs.append(R.copy())
        bs.append(b.copy())
        if halted:
            break
    return RadiusTrace(
        eng.name, np.stack(rs),
        np.stack(xs) if xs is not None else None,
        np.stack(ys) if ys is not None else None,
        np.stack(Rs), np.stack(bs), windows, halted, halt_t, rho, D, p)


@dataclass
class WindowedTrace:
    engine: str
    rs: np.ndarray
    windows: list         # RadiusWindow entries with detected=None
    Dbound: int
    p: float


def windowed_radius_trace(g: DiGraph, W: StochasticMatrix, x0,
                          Dbound: int | None = None, p: float = 2.0,
                          eps: float | None = None,
                          max_windows: int | None = None,
                          k_max: int = 100_000) -> WindowedTrace:
    """Plain windowed radius recursion without bits or halting.

    Window l starts at iteration l*D and its radius is recorded at
    (l+1)*D after exactly D accumulation steps, which is the indexing the
    containment and envelope-bound properties are stated in. Runs until
    the largest recorded radius drops below eps, max_windows windows are
    recorded, or k_max iterations elapse.
    """
    D = _resolve_window(g, Dbound)
    eng = _Engine(W, x0)
    R = np.zeros(g.n)
    rs = [eng.cur.copy()]
    windows: list = []
    for t in range(1, k_max + 1):
        prev = eng.cur
        eng.step()
        R = radius_step(g, eng.cur, prev, R, p)
        rs.append(eng.cur.copy())
        if t % D == 0:
            windows.append(RadiusWindow(t // D - 1, t - D, t, R.copy(), None))
            if eps is not None and R.max() < eps:
                break
            if max_windows is not None and len(windows) >= max_windows:
                break
            R = np.zeros(g.n)
    return WindowedTrace(eng.name, np.stack(rs), windows, D, p)


def run_box_stopping(g: DiGraph, W: StochasticMatrix, x0, rho: float,
                     Dbound: int | None = None, p: float = 2.0,
                     k_max: int = 100_000) -> BoxTrace:
    """Windowed min/max envelope flooding.

    Each window floods the coordinatewise extrema of the window-start
    states; after Dbound flood rounds every node holds the exact global
    envelope, so the halt decision is identical everywhere and takes
    effect at the boundary itself.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    D = _resolve_window(g, Dbound)
    eng = _Engine(W, x0)
    dst, src = g.edge_arrays
    Mb = eng.cur.copy()
    mb = eng.cur.copy()
    rs = [eng.cur.copy()]
    windows: list = []
    halted = False
    halt_t = None
    for t in range(1, k_max + 1):
        eng.step()
        Mn = np.full_like(Mb, -np.inf)
        np.maximum.at(Mn, dst, Mb[src])
        mn = np.full_like(mb, np.inf)
        np.minimum.at(mn, dst, mb[src])
        Mb, mb = Mn, mn
        rs.append(eng.cur.copy())
        if t % D == 0:
            spreads = vector_norm(Mb - mb, p, axis=-1)
            if not np.all(spreads == spreads[0]):
                raise InvariantViolation(f"envelope disagreement at boundary t={t}")
            windows.append(BoxWindow(t // D - 1, t - D, t, float(spreads[0])))
            if spreads[0] < rho:
                halted = True
                halt_t = t
                break
            Mb = eng.cur.copy()
            mb = eng.cur.copy()
    return BoxTrace(eng.name, np.stack(rs), windows, halted, halt_t, rho, D, p)


def run_hull_stopping(g: DiGraph, W: StochasticMatrix, x0, rho: float,
                      Dbound: int | None = None, p: float = 2.0,
                      k_max: int = 100_000, tol: float = 1e-9) -> HullStopTrace:
    """Windowed hull consensus over the window-start states.

    After Dbound rounds every node holds the extreme set of all window
    start states; the halt fires once its diameter drops below rho. The
    largest message size seen (in points) is tracked for bandwidth
    accounting.
    """
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    D = _resolve_window(g, Dbound)
    eng = _Engine(W, x0)
    cache: dict = {}
    exts = [HullNodeState(PointSet(eng.cur[i:i + 1]), 0) for i in range(g.n)]
    max_points = max(len(s.ext) for s in exts)
    rs = [eng.cur.copy()]
    windows: list = []
    halted = False
    halt_t = None
    for t in range(1, k_max + 1):
        eng.step()
        exts = hull_round(exts, g, tol, cache)
        max_points = max(max_points, max(len(s.ext) for s in exts))
        rs.append(eng.cur.copy())
        if t % D == 0:
            first = exts[0].ext
            if any(s.ext != first for s in exts[1:]):
                raise InvariantViolation(f"extreme sets disagree at boundary t={t}")
            diam = hull_diameter(first, p)
            windows.append(HullWindow(t // D - 1, t - D, t, diam))
            if diam < rho:
                halted = True
                halt_t = t
                break
            exts = [HullNodeState(PointSet(eng.cur[i:i + 1]), 0) for i in range(g.n)]
    return HullStopTrace(eng.name, np.stack(rs), windows, halted, halt_t,
                         rho, D, p, max_points)


def bandwidth_accounting(method: str, B: int = 32, d: int | None = None,
                         hull_size: int | None = None) -> int:
    """Extra bits per neighbor interaction on top of the consensus payload:
    radius = B + 1 (one float plus the halt bit), box = 2*B*d (two
    envelope vectors), hull = B*d*hull_size (a full extreme set)."""
    if B < 1:
        raise ValueError(f"need B >= 1, got {B}")
    if method == "radius":
        return B + 1
    if d is None or d < 1:
        raise ValueError(f"method {method!r} needs a dimension d >= 1")
    if method == "box":
        return 2 * B * d
    if method == "hull":
        if hull_size is None or hull_size < 1:
            raise ValueError("hull accounting needs the message size in points")
        return B * d * hull_size
    raise ValueError(f"unknown method {method!r}")


def write_termination_csv(trace: RadiusTrace, path):
    """Rows (k, node, R, b, window_l, halt_flag); window_l counts the
    window each iteration belongs to, halt_flag marks the halt iteration."""
    T, n = trace.Rs.shape
    D = trace.Dbound
    with _csv_table(path, "k,node,R,b,window_l,halt_flag",
                    ("k", "node", "b", "window_l", "halt_flag")) as write:
        for k in range(T):
            wl = 0 if k == 0 else (k - 1) // D + 1
            hf = 1 if (trace.halted and k == trace.halt_t) else 0
            write(k, np.arange(n), trace.Rs[k], trace.bs[k], wl, hf)
