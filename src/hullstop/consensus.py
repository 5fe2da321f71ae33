"""Push-sum (ratio) and row-averaging consensus engines over R^d states.

Every per-node sum is one graph._in_sum call per step over one (n, c) array
of all coordinates, stacked once (push-sum's y is one more column). It adds
each receiver's terms in ascending sender order over the graph's slot-major
in-layout (graph's module docstring), so repeated runs are bit-identical,
and a d-dimensional run matches d independent scalar runs coordinate for
coordinate, exactly; the states come out C-ordered. The row engine's limit
is per edge too: perron_left sums each node's out-edges in ascending
receiver order.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import InvariantViolation
from .graph import StochasticMatrix, _in_sum, _integer

__all__ = [
    "RatioState",
    "RowState",
    "ConsensusTrace",
    "make_ratio_state",
    "ratio_step",
    "row_step",
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


@dataclass(frozen=True)
class RowState:
    z: np.ndarray
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
    xy = _in_sum(W, np.column_stack((x, y)))
    xn, yn = xy[:, :-1], xy[:, -1]
    if np.minimum.reduce(yn) <= 0.0:
        raise InvariantViolation(f"nonpositive denominator at k={state.k + 1}")
    return RatioState(xn, yn, xn / yn[:, None], state.k + 1)


def row_step(state: RowState, A: StochasticMatrix) -> RowState:
    """One synchronous averaging round: z_i <- sum_j a[i, j] z_j over senders."""
    if A.kind != "row":
        raise ValueError(f"row updates need row-stochastic weights, got kind {A.kind!r}")
    n = A.graph.n
    z = state.z
    if z.ndim != 2 or z.shape[0] != n:
        raise ValueError(f"state shape {z.shape} does not match n={n}")
    return RowState(_in_sum(A, z), state.k + 1)


@dataclass
class ConsensusTrace:
    """Stacked history of a run. states[k] holds the ratio states r(k) for
    the ratio engine or z(k) for the row engine; xs and ys are None for the
    row engine."""

    engine: str
    states: np.ndarray
    xs: np.ndarray | None = None
    ys: np.ndarray | None = None

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1


class _Engine:
    """The one place that maps W.kind to a consensus step: the ratio engine
    for column-stochastic weights, the row engine otherwise. x0 is checked
    here, before any step runs."""

    def __init__(self, W: StochasticMatrix, x0):
        self.W = W
        if W.kind == "column":
            self.name = "ratio"
            self.state: RatioState | RowState = make_ratio_state(x0)
        else:
            self.name = "row"
            self.state = RowState(_finite_states(x0))
        if self.cur.shape[0] != W.graph.n:
            raise ValueError(f"initial states must be ({W.graph.n}, d), got {self.cur.shape}")

    @property
    def cur(self) -> np.ndarray:
        return self.state.r if self.name == "ratio" else self.state.z

    def step(self):
        if self.name == "ratio":
            self.state = ratio_step(self.state, self.W)
        else:
            self.state = row_step(self.state, self.W)

    def record(self) -> dict:
        """What a step records: rs, plus xs and ys on the ratio engine."""
        if self.name == "ratio":
            return {"rs": self.state.r, "xs": self.state.x, "ys": self.state.y}
        return {"rs": self.state.z}


def run_consensus(W: StochasticMatrix, x0, steps: int) -> ConsensusTrace:
    """Run the engine matching W.kind for a fixed number of rounds."""
    steps = _integer("steps", steps, 0)
    eng = _Engine(W, x0)
    rows = {name: [v] for name, v in eng.record().items()}
    for _ in range(steps):
        eng.step()
        for name, v in eng.record().items():
            rows[name].append(v)
    fields = {name: np.stack(v) for name, v in rows.items()}
    return ConsensusTrace(eng.name, fields["rs"], fields.get("xs"), fields.get("ys"))


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
        if not np.array_equal(col.states[..., 0], trace.states[..., c]):
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


def write_state_csv(trace: ConsensusTrace, path):
    """Rows (k, node, coord, x, y, r) at 17 significant digits, which is
    enough to round-trip float64 exactly. The row engine stores z in both
    x and r with y = 1.

    Each value the layout repeats is formatted once: the "node,coord,"
    prefixes once per file, written into one %-template per chunk of
    _CHUNK_ROWS rows; y once per node and step, not once per coordinate;
    and on the row engine, where x and r are the same array, that array
    once per step. The bytes are those of one "%d,%d,%d,%.17g,%.17g,%.17g"
    row format, which the tests keep as the reference."""
    states = _every_step(trace.states, "write_state_csv")
    T, n, d = states.shape
    same = trace.xs is None
    xs = states if same else trace.xs
    # x and r go in as preformatted strings when they are the same array
    cell = "%s" if same else "%.17g"
    rows = n * d
    templates = ["".join(f"%s,{j // d},{j % d},{cell},%s,{cell}\n"
                         for j in range(s, min(s + _CHUNK_ROWS, rows)))
                 for s in range(0, rows, _CHUNK_ROWS)]
    with open(path, "w", newline="") as fh:
        fh.write(_STATE_HEADER + "\n")
        for k in range(T):
            ys = trace.ys[k].tolist() if trace.ys is not None else [1.0] * n
            y = [g for g in map("%.17g".__mod__, ys) for _ in range(d)]
            x_k, r_k = xs[k].ravel(), states[k].ravel()
            for s, template in zip(range(0, rows, _CHUNK_ROWS), templates):
                x = x_k[s:s + _CHUNK_ROWS].tolist()
                if same:
                    x = r = list(map("%.17g".__mod__, x))
                else:
                    r = r_k[s:s + _CHUNK_ROWS].tolist()
                fh.write(template % tuple(chain.from_iterable(
                    zip(repeat(str(k)), x, y[s:s + _CHUNK_ROWS], r))))


def read_state_csv(path) -> ConsensusTrace:
    """Exact inverse of write_state_csv (engine label is not stored). Raises
    ValueError unless every (k, node, coord) cell appears exactly once.
    T, n and d are the largest indices found, so a file cut at a step
    boundary reads back as a shorter trace: a caller must compare the step
    count with the one it knows."""
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        if header != _STATE_HEADER:
            raise ValueError(f"unexpected state csv header {header!r}")
        rows = np.loadtxt(fh, delimiter=",", ndmin=1, dtype=[
            ("k", int), ("node", int), ("coord", int), ("x", float), ("y", float), ("r", float)])
    k, node, coord = rows["k"], rows["node"], rows["coord"]
    T, n, d = int(k.max()) + 1, int(node.max()) + 1, int(coord.max()) + 1
    cell = (k * n + node) * d + coord
    order = np.argsort(cell)
    if min(node.min(), coord.min()) < 0 or not np.array_equal(cell[order], np.arange(T * n * d)):
        raise ValueError(f"state csv {path} does not hold each (k, node, coord) exactly once")
    xs, rs = (rows[name][order].reshape(T, n, d) for name in ("x", "r"))
    return ConsensusTrace("unknown", rs, xs, rows["y"][order[::d]].reshape(T, n))
