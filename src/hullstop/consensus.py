"""Push-sum (ratio) and row-averaging consensus engines over R^d states.

Every per-node sum is one graph._in_sum call per step over one (n, c) array
of all coordinates (push-sum's y is one more column). It adds each
receiver's terms in ascending sender order over the graph's slot-major
in-layout (graph's module docstring), so repeated runs are bit-identical,
and a d-dimensional run matches d independent scalar runs coordinate for
coordinate, exactly; the states come out C-ordered. The row engine's limit
is per edge too: perron_left sums each node's out-edges in ascending
receiver order.

The public ratio_step checks its input, then runs the same kernel as
_Engine, which checks x0 once and then steps bare: _push_sum on the stacked
(n, d+1) [x | y] array it carries from step to step, _in_sum on the row
engine's z. So every run takes one arithmetic path.

Every run, with a stopping rule (termination) or without (_NoStop, which
run_consensus runs), is one step loop, _run_windows: it steps _Engine,
schedules the windows, records the history and returns StopTrace, the one
run record; a rule holds only its own state, per-step update and boundary
decision. No rule reads a state older than its window start, so a run
keeps step 0 and the last step of its states, and its window count and
last window: its memory does not grow with its length unless history=True.

The loop's one per-step hook is a sink called with each step's record
(step 0 included) and whether that step is the halt: _History for
history=True; in the harness and the CLI, sinks that write each step's
artifact rows as the run makes them, so no run holds its history to write
a file.

states.csv has one per-step formatter, _StateRows: write_state_csv loops it
over any StopTrace with history, and the harness and the CLI call it from
the loop's per-step hook as each step is made. It has one reader, _state_blocks,
which reads whole steps in blocks of graph._BLOCK_BYTES and checks each;
read_state_csv stacks the blocks, harness.verify_states_file keeps only the
last step.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .errors import InvariantViolation
from .geometry import _norm_order
from .graph import _BLOCK_BYTES, DiGraph, StochasticMatrix, _in_sum, _integer

__all__ = [
    "RatioState",
    "StopTrace",
    "make_ratio_state",
    "ratio_step",
    "run_consensus",
    "consensus_limit",
    "perron_left",
    "scalar_vector_equivalence_check",
    "write_state_csv",
    "read_state_csv",
]

_STATE_HEADER = "k,node,coord,x,y,r"
_CHUNK_ROWS = 256
# power iteration in perron_left: stop once an iterate moves by at most
# _PERRON_TOL in l1; _PERRON_MAX_ITER iterations without that is an error
_PERRON_TOL = 1e-12
_PERRON_MAX_ITER = 100_000


@dataclass(frozen=True)
class RatioState:
    """Per-node numerator x (n, d), denominator y (n,), ratio r = x / y."""

    x: np.ndarray
    y: np.ndarray
    r: np.ndarray
    k: int = 0


def _finite_states(x0) -> np.ndarray:
    """x0 as a fresh float (n, d) array. A non-finite entry is rejected here:
    it never settles, so a stopping run would spend its whole step budget."""
    x = np.array(x0, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"initial states must be (n, d), got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("initial states must be finite")
    return x


def make_ratio_state(x0) -> RatioState:
    x = _finite_states(x0)
    y = np.ones(x.shape[0])
    return RatioState(x, y, x / y[:, None], 0)


def ratio_step(state: RatioState, W: StochasticMatrix) -> RatioState:
    """One synchronous push-sum round.

    Receiver j accumulates w[j, i] * x_i over its senders i in ascending
    order, likewise for y in the same edge sum, then r = x / y. Column
    stochasticity conserves the totals of x and y.
    """
    if W.kind != "column":
        raise ValueError(f"ratio updates need column-stochastic weights, got kind {W.kind!r}")
    n = W.graph.n
    x, y = state.x, state.y
    if x.ndim != 2 or x.shape[0] != n or y.shape != (n,):
        raise ValueError(f"state shapes {x.shape}, {y.shape} do not match n={n}")
    xy = np.column_stack((x, y))
    xy, r = _push_sum(W, W.graph.in_layout.cut(xy), xy, state.k + 1)
    return RatioState(xy[:, :-1], xy[:, -1], r, state.k + 1)


def _push_sum(W, cut, xy, k):
    """The push-sum round that makes step k from the stacked (n, d+1) array
    [x | y], gathered by cut: the next stacked array and its ratio
    r = x / y."""
    xy = _in_sum(W, xy, cut)
    y = xy[:, -1]
    if np.minimum.reduce(y) <= 0.0:
        raise InvariantViolation(f"nonpositive denominator at k={k}")
    return xy, xy[:, :-1] / y[:, None]


@dataclass
class StopTrace:
    """The one record of a run of T steps. rs holds the states, r(k) on the
    ratio engine or z(k) on the row engine. On the ratio engine the radius
    rule and a run with no rule (_NoStop) record xs and ys as well, the x
    and y that r is the ratio of, and read_state_csv returns them on either
    engine; only the radius rule records Rs and bs, the (n,) accumulators
    and halt bits after the boundary bookkeeping. Each is indexed by step:
    with history a (T+1, ...) array, without (a stopping run's default) a
    dict {0: ..., T: ...} of step 0 and the last step, so rs[0], rs[halt_t]
    and bs[halt_t] read the same in both forms. Likewise windows lists every
    window record with history and the last one (if any) without, and
    n_windows counts the run's windows in both. A run with no rule records
    none and does not halt. Every run sets Dbound, its window length, and p;
    only read_state_csv leaves them None. rho is None for the plain radius
    run and a run with no rule; only the hull rule sets max_points."""

    engine: str
    rs: np.ndarray | dict
    xs: np.ndarray | dict | None = None
    ys: np.ndarray | dict | None = None
    Rs: np.ndarray | dict | None = None
    bs: np.ndarray | dict | None = None
    windows: list = field(default_factory=list)
    n_windows: int = 0
    halted: bool = False
    halt_t: int | None = None
    rho: float | None = None
    Dbound: int | None = None
    p: float | None = None
    max_points: int | None = None

    @property
    def steps(self) -> int:
        """T, the number of steps the run made."""
        return max(self.rs) if isinstance(self.rs, dict) else self.rs.shape[0] - 1


class _Engine:
    """The one place that maps W.kind to a consensus step: the ratio engine
    for column-stochastic weights, the row engine otherwise. x0 is checked
    here, before any step runs, and the layout cut for the array each step
    sums is resolved; the steps run the kernels unchecked. cur is the
    current state r (ratio) or z (row), k the step count, and the ratio
    engine carries x and y stacked as xy = [x | y]."""

    def __init__(self, W: StochasticMatrix, x0):
        self.W = W
        x = _finite_states(x0)
        if x.shape[0] != W.graph.n:
            raise ValueError(f"initial states must be ({W.graph.n}, d), got {x.shape}")
        self.k = 0
        self.name = "ratio" if W.kind == "column" else "row"
        if self.name == "ratio":
            self.xy = np.column_stack((x, np.ones(len(x))))
        self.cur = x
        self.cut = W.graph.in_layout.cut(self.xy if self.name == "ratio" else x)

    def step(self):
        self.k += 1
        if self.name == "ratio":
            self.xy, self.cur = _push_sum(self.W, self.cut, self.xy, self.k)
        else:
            self.cur = _in_sum(self.W, self.cur, self.cut)

    def record(self) -> dict:
        """What a step records: rs, plus xs and ys (views of xy) on the
        ratio engine."""
        if self.name == "ratio":
            return {"rs": self.cur, "xs": self.xy[:, :-1], "ys": self.xy[:, -1]}
        return {"rs": self.cur}


class _History:
    """The one history recorder: a per-step sink, called as sink(k, row,
    halt) by _run_windows, that keeps every step's record, one list per
    field, stacked once at the end."""

    def __init__(self):
        self.rows: dict = {}

    def __call__(self, k, row, halt):
        for name, v in row.items():
            self.rows.setdefault(name, []).append(v)

    def stacked(self) -> dict:
        return {name: np.stack(v) for name, v in self.rows.items()}


def _resolve_window(g: DiGraph, Dbound) -> int:
    D = max(1, g.diameter) if Dbound is None else _integer("Dbound", Dbound, 1)
    if D < g.diameter:
        raise ValueError(f"window length {D} is below the graph diameter {g.diameter}")
    return D


def _run_windows(rule, W: StochasticMatrix, x0, Dbound, k_max,
                 history: bool = False, sink=None) -> StopTrace:
    """The one step loop behind every run (see _Rule), on W's graph, which
    must be the graph the rule was made on.

    Window boundaries fall every D = _resolve_window(W.graph, Dbound) steps
    after the rule's lag, so its first window has D + lag steps. A run that
    a boundary ends halts there, unless the rule never halts. sink(k, row,
    halt), if given, is called at step 0 and after each step's boundary
    bookkeeping with that step's record: rs and the rule's records (see
    StopTrace), and whether step k is the halt. history=True makes the sink
    _History, whose lists become the trace's fields, and keeps every
    window record; else the trace keeps step 0, the last step and the last
    window only.
    """
    g = W.graph
    # by in-layout: DiGraph equality compares provenance, builds edge tuples
    if rule.g is not g and not rule.g.in_layout.same_edges(g.in_layout):
        raise ValueError("the stopping rule's graph is not the weights' graph")
    if rule.rho is not None and not rule.rho > 0:
        raise ValueError(f"rho must be positive, got {rule.rho}")
    rule.p = _norm_order(rule.p)
    k_max = _integer("k_max", k_max, 0)
    D = _resolve_window(g, Dbound)
    eng = _Engine(W, x0)
    rule.begin(eng.cur)
    names = ("rs",) + tuple(name for name in rule.records
                            if eng.name == "ratio" or name not in ("xs", "ys"))

    def row():
        rec = eng.record()
        return {name: rec[name] if name in rec else getattr(rule, name) for name in names}

    if history:
        sink = _History()
    first = row()
    if sink is not None:
        sink(0, first, False)
    windows: list = []
    n_windows = 0
    start_t = 0
    halt_t = None
    for t in range(1, k_max + 1):
        prev = eng.cur
        eng.step()
        rule.step(prev, eng.cur)
        end = False
        if t > rule.lag and (t - rule.lag) % D == 0:
            # windows are numbered from the lag: radius from 1, the rest from 0
            window, end = rule.boundary((t - rule.lag) // D - 1 + rule.lag, start_t, t)
            if window is not None:
                n_windows += 1
                if not history:
                    windows.clear()
                windows.append(window)
            if not end:
                rule.begin(eng.cur)
            start_t = t
        if sink is not None:
            sink(t, row(), end and rule.halts)
        if end:
            halt_t = t if rule.halts else None
            break
    if history:
        fields = sink.stacked()
    else:
        fields = {name: {0: first[name], eng.k: v} for name, v in row().items()}
    return StopTrace(eng.name, windows=windows, n_windows=n_windows, halted=halt_t is not None,
                     halt_t=halt_t, rho=rule.rho, Dbound=D, p=rule.p,
                     max_points=rule.max_points, **fields)


class _Rule:
    """A stopping rule's own state for _run_windows. begin(cur) starts a
    window from the states cur; step(prev, cur) follows one engine step;
    boundary(index, start_t, t) returns the window record (or None) and
    whether the run ends. records names the StopTrace fields the driver
    reads besides rs: xs and ys from a ratio engine (skipped on the row
    engine), any other from the rule's attribute of that name."""

    lag = 0
    halts = True
    records: tuple = ()
    max_points = None

    def __init__(self, g: DiGraph, rho, p):
        self.g, self.rho, self.p = g, rho, p

    def begin(self, cur):
        pass


class _NoStop(_Rule):
    """No stopping rule: the run takes all k_max steps, and its boundaries
    record nothing. run_consensus is its run with history."""

    halts = False
    records = ("xs", "ys")

    def step(self, prev, cur):
        pass

    def boundary(self, index, start_t, t):
        return None, False


def run_consensus(W: StochasticMatrix, x0, steps: int) -> StopTrace:
    """Run the engine matching W.kind for a fixed number of rounds (_NoStop)."""
    steps = _integer("steps", steps, 0)
    return _run_windows(_NoStop(W.graph, None, 2.0), W, x0, None, steps, history=True)


def perron_left(A: StochasticMatrix) -> np.ndarray:
    """Left Perron vector of row-stochastic weights, normalized to sum 1.

    Power iteration v <- A^T v over the edges: node j sums a[i, j] * v[i]
    over its out-edges j -> i in ascending receiver order, one np.bincount.
    Primitivity (positive diagonal plus strong connectivity) guarantees
    convergence, so hitting the cap signals weights that violate it.
    """
    (dst, src), n = A.graph.edge_arrays, A.graph.n
    v = np.full(n, 1.0 / n)
    for _ in range(_PERRON_MAX_ITER):
        w = np.bincount(src, A.edge_weights * v[dst], minlength=n)
        w = w / w.sum()
        if np.abs(w - v).sum() <= _PERRON_TOL:
            return w
        v = w
    raise RuntimeError("power iteration did not converge; matrix may not be primitive")


def consensus_limit(initial, W: StochasticMatrix) -> np.ndarray:
    """Analytic limit of the run: the plain average for the ratio engine,
    the Perron-weighted average for the row engine. initial is checked as
    the engine checks it."""
    initial = _Engine(W, initial).cur
    if W.kind == "column":
        return initial.mean(axis=0)
    return perron_left(W) @ initial


def scalar_vector_equivalence_check(initial, W: StochasticMatrix, steps: int) -> bool:
    """Re-run each coordinate as an independent scalar consensus, an (n, 1)
    state through the same step, and compare against the vector run bit
    for bit."""
    initial = np.asarray(initial, dtype=float)
    trace = run_consensus(W, initial, steps)
    for c in range(initial.shape[1]):
        col = run_consensus(W, initial[:, c:c + 1], steps)
        if not np.array_equal(col.rs[..., 0], trace.rs[..., c]):
            return False
        if col.xs is not None and not (np.array_equal(col.xs[..., 0], trace.xs[..., c])
                                       and np.array_equal(col.ys, trace.ys)):
            return False
    return True


@contextmanager
def _csv_table(path, header: str, fmt: str):
    """Write a CSV artifact: the header, then the rows of each call of the
    yielded writer, whose arguments are columns (equal-length arrays or scalars,
    numbers or strings); fmt is one row's %-format, %.17g round-tripping float64.
    Each chunk of _CHUNK_ROWS rows is one %, which bounds the temporaries: one %
    per 2500-row funccalc block raised the cli workload's peak_mb by 16%."""
    line = fmt + "\n"

    def write(*cols):
        cols = [np.ravel(c) for c in np.broadcast_arrays(*cols)]
        for s in range(0, cols[0].size, _CHUNK_ROWS):
            chunk = [c[s:s + _CHUNK_ROWS].tolist() for c in cols]
            fh.write((line * len(chunk[0])) % tuple(chain.from_iterable(zip(*chunk))))

    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        yield write


def _every_step(rows, what: str) -> np.ndarray:
    """rows, the (T+1, ...) per-step array that the writer what needs. A
    stopping run without history holds a dict {0: ..., T: ...} instead,
    which is rejected here."""
    if not isinstance(rows, np.ndarray):
        raise ValueError(f"{what} needs every step: run the stopping rule with history=True")
    return rows


class _StateRows:
    """states.csv's one per-step formatter. It writes the header to fh; each
    call (k, r, x, y) then writes step k's rows (k, node, coord, x, y, r) at
    17 significant digits, which is enough to round-trip float64 exactly.
    With x None (the row engine) x is r; with y None, y is 1.

    Each value the layout repeats is formatted once: the "node,coord,"
    prefixes once per file, written at the first call into one %-template
    per chunk of _CHUNK_ROWS rows; y once per node and step, not once per
    coordinate; and where x is r, that array once per step. The bytes are
    those of one "%d,%d,%d,%.17g,%.17g,%.17g" row format, which the tests
    keep as the reference."""

    def __init__(self, fh):
        fh.write(_STATE_HEADER + "\n")
        self.fh = fh
        self.templates = None

    def __call__(self, k, r, x=None, y=None):
        n, d = r.shape
        rows = n * d
        if self.templates is None:
            # x and r go in as preformatted strings when they are the same array
            cell = "%s" if x is None else "%.17g"
            self.templates = ["".join(f"%s,{j // d},{j % d},{cell},%s,{cell}\n"
                                      for j in range(s, min(s + _CHUNK_ROWS, rows)))
                              for s in range(0, rows, _CHUNK_ROWS)]
        ys = [1.0] * n if y is None else y.tolist()
        ys = [g for g in map("%.17g".__mod__, ys) for _ in range(d)]
        x_k, r_k = (r if x is None else x).ravel(), r.ravel()
        for s, template in zip(range(0, rows, _CHUNK_ROWS), self.templates):
            xc = x_k[s:s + _CHUNK_ROWS].tolist()
            if x is None:
                xc = rc = list(map("%.17g".__mod__, xc))
            else:
                rc = r_k[s:s + _CHUNK_ROWS].tolist()
            self.fh.write(template % tuple(chain.from_iterable(
                zip(repeat(str(k)), xc, ys[s:s + _CHUNK_ROWS], rc))))


def write_state_csv(trace: StopTrace, path):
    """Every step of trace, which needs its history, through _StateRows.
    The row engine stores z in both x and r with y = 1."""
    states = _every_step(trace.rs, "write_state_csv")
    with open(path, "w", newline="") as fh:
        rows = _StateRows(fh)
        for k in range(states.shape[0]):
            rows(k, states[k], None if trace.xs is None else trace.xs[k],
                 None if trace.ys is None else trace.ys[k])


def _state_blocks(path, fields=("x", "y", "r")):
    """states.csv's one reader, behind read_state_csv and
    harness.verify_states_file: yields a tuple with the named fields' arrays,
    x and r of shape (s, n, d) and y (s, n), for consecutive blocks of s
    whole steps: as many as keep the parsed block within _BLOCK_BYTES, so
    that a small n * d does not pay one np.loadtxt call per step, and at
    least one. Columns not named are not parsed, since parsing floats is
    most of the read. The reader drops its own references to a block before
    it parses the next; a caller that drops its view of the block too, as
    harness.verify_states_file does, holds one block at a time. The k = 0
    rows at the head of the file fix the rows per step. Each block must hold
    every (k, node, coord) of its steps exactly once and in step-major
    order, as _StateRows writes them, else ValueError; so is a file that
    ends inside a step. A file cut at a step boundary reads as a shorter
    trace: a caller must compare the step count with the one it knows.

    Each block is one np.loadtxt(max_rows=...) call on the open file, which
    leaves it just past the block's last row; one line is read ahead so that
    numpy never sees an empty input at the end."""
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        if header != _STATE_HEADER:
            raise ValueError(f"unexpected state csv header {header!r}")
        head = fh.tell()
        size = 0
        while fh.readline().partition(",")[0] == "0":
            size += 1
        fh.seek(head)
        bad = ValueError(f"state csv {path} does not hold each (k, node, coord) exactly once")
        if size == 0:
            raise bad
        names = ("k", "node", "coord", *fields)
        columns = [_STATE_HEADER.split(",").index(name) for name in names]
        dtype = np.dtype([(name, float if name in fields else int) for name in names])
        max_rows = max(1, _BLOCK_BYTES // (size * dtype.itemsize)) * size
        n = d = None
        k0 = 0
        for line in iter(fh.readline, ""):
            if line.isspace():
                continue
            block = np.loadtxt(chain([line], fh), delimiter=",", ndmin=1, max_rows=max_rows,
                               usecols=columns, dtype=dtype)
            k, node, coord = block["k"], block["node"], block["coord"]
            if n is None:
                n, d = int(node[:size].max()) + 1, int(coord[:size].max()) + 1
            steps, rest = divmod(len(block), size)
            cell = np.arange(k0 * size, (k0 + steps) * size)
            if (n * d != size or rest or not np.array_equal(k, cell // size)
                    or not np.array_equal(node, cell // d % n)
                    or not np.array_equal(coord, cell % d)):
                raise bad
            yield tuple(block[name][::d].reshape(steps, n) if name == "y"
                        else block[name].reshape(steps, n, d) for name in fields)
            del block, k, node, coord, cell
            k0 += steps


def read_state_csv(path) -> StopTrace:
    """Exact inverse of write_state_csv (engine label is not stored): the
    blocks of _state_blocks, whose checks raise ValueError, stacked."""
    xs, ys, rs = (np.concatenate(part) for part in zip(*_state_blocks(path)))
    return StopTrace("unknown", rs, xs=xs, ys=ys)
