"""The benchmark's four workloads: inputs from the seed, one op, output checks.

An op is the unit a user waits for. ``prepare`` runs untimed before each op
(it empties the op's output directory). ``parts`` lists the op's calls in
order; each is timed on its own, so the runner can gauge the host's speed
between them. ``check`` runs untimed on their results. It raises
``CheckFailed`` when an output is wrong and otherwise returns an ``Outcome``
whose ``halts`` and ``digest`` must repeat exactly on every op of a run: the
byte-identical contract.

Why these workloads:

- ``experiment``: ``run_experiment`` at n=300, d=10 with the radius rule.
  Artifact I/O and graph preprocessing do most of the work, and the run
  halts after about 10 steps, so a CSV or diameter change moves it and a
  consensus-kernel change should not.
- ``stop_er1000``: radius then box stopping on an Erdos-Renyi graph,
  n=1000, d=4, built in set-up. Set-up is dominated by the diameter; the
  op by scatter and max reductions over about 28.5k edges.
- ``stop_ring``: the same op on a directed ring, n=60, d=10, D=59. Thousands
  of steps over 120 edges: per-call overhead, window bookkeeping and history
  recording dominate, and memory grows with the step count.
- ``cli``: in-process ``hullstop.cli.main`` over compare, lse, funccalc and
  hull. The only workload that reaches geometry, hull, applications and the
  CLI's own writers, with geometry on collapsing clouds (compare) and on
  random ones (hull).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An op's output broke a guarantee or the byte-identical contract."""


@dataclass
class Outcome:
    halts: dict            # stopping rule -> halt iteration
    steps: int             # consensus iterations completed in the op
    digest: str            # sha256 over final states or artifacts
    bytes_written: dict = field(default_factory=dict)   # layer -> bytes


def er_prob(n: int) -> float:
    """Edge probability 4 ln n / n: strongly connected with room to spare."""
    return min(1.0, 4.0 * math.log(n) / n)


def max_pairwise_distance(X) -> float:
    """Largest Euclidean distance between rows, in row blocks to bound memory."""
    X = np.asarray(X, dtype=float)
    best = 0.0
    for i in range(0, X.shape[0], 128):
        diff = X[i:i + 128, None, :] - X[None, :, :]
        best = max(best, float(np.sqrt((diff * diff).sum(axis=-1)).max()))
    return best


def _check_spread(what: str, final, rho: float):
    spread = max_pairwise_distance(final)
    if not spread <= 2.0 * rho:
        raise CheckFailed(f"{what}: spread {spread:.6g} at halt exceeds 2 rho = {2 * rho:.6g}")


def digest_tree(root: Path, h=None):
    """sha256 over (relative path, bytes) of every file under root, and the
    total bytes."""
    h = h or hashlib.sha256()
    total = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        h.update(str(path.relative_to(root)).encode() + b"\0" + data)
    return h, total


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool, work_dir: Path):
        self.seed = seed
        self.out = work_dir / self.name

    def setup(self):
        """Import hullstop and build the inputs the op is handed."""

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def parts(self, tracer) -> list:
        """Zero-argument calls that make up one op, in order."""
        raise NotImplementedError

    def check(self, results: list) -> Outcome:
        raise NotImplementedError

    def context(self) -> dict:
        raise NotImplementedError


class StopWorkload(Workload):
    """Radius then box stopping on a graph built in set-up, no files.

    The graph is the same for every seed (graph seed 0: for n=1000, about
    28.5k edges and D=4); the seed draws the initial states. Drawn from the
    seed, the n=1000 graph had D=3 on 3 of seeds 11-20, which shortens both
    runs by two steps, and run_s then spread 0.12 across those seeds.
    """

    def __init__(self, seed, smoke, work_dir, *, model, n, d, rho):
        super().__init__(seed, smoke, work_dir)
        self.model, self.n, self.d, self.rho = model, n, d, rho

    def setup(self):
        from hullstop import graph, termination

        self.termination = termination
        self.g = graph.generate_digraph(self.n, self.model, 0, er_prob(self.n))
        self.W = graph.make_weights(self.g, "column")
        self.D = self.g.diameter
        self.x0 = np.random.default_rng([self.seed, 1]).random((self.n, self.d))

    def parts(self, tracer):
        t = self.termination
        args = (self.g, self.W, self.x0, self.rho)
        return [functools.partial(t.run_radius_stopping, *args),
                functools.partial(t.run_box_stopping, *args)]

    def check(self, results) -> Outcome:
        h = hashlib.sha256()
        halts = {}
        for rule, tr in zip(("radius", "box"), results):
            if not tr.halted:
                raise CheckFailed(f"{rule} stopping did not halt")
            final = np.ascontiguousarray(tr.rs[tr.halt_t])
            _check_spread(rule, final, self.rho)
            h.update(final.tobytes())
            halts[rule] = int(tr.halt_t)
        h.update(json.dumps(halts, sort_keys=True).encode())
        return Outcome(halts, sum(halts.values()), h.hexdigest())

    def context(self) -> dict:
        return {"seed": self.seed, "graph_seed": 0, "model": self.model, "n": self.n,
                "d": self.d, "rho": self.rho, "graph.edges": len(self.g.edges),
                "graph.D": self.D}


class ExperimentWorkload(Workload):
    """One run_experiment call with the radius rule into a fresh directory."""

    name = "experiment"

    def __init__(self, seed, smoke, work_dir):
        super().__init__(seed, smoke, work_dir)
        self.n, self.d, self.rho = (20, 3, 0.01) if smoke else (300, 10, 0.01)
        self.graph_info = {}

    def setup(self):
        from hullstop import harness

        self.harness = harness

    def parts(self, tracer):
        cfg = self.harness.ExperimentConfig(
            n=self.n, dim=self.d, topology="erdos_renyi", edge_prob=er_prob(self.n),
            seed=self.seed, engine="ratio", stopping="radius", rho=self.rho,
            out_dir=str(self.out))
        return [functools.partial(self.harness.run_experiment, cfg)]

    def check(self, results) -> Outcome:
        res, = results
        s = res.summary
        if not s["halted"]:
            raise CheckFailed("run_experiment did not halt")
        if s["guarantee_2rho_ok"] is not True:
            raise CheckFailed(f"guarantee_2rho_ok is {s['guarantee_2rho_ok']}")
        _check_spread("experiment", res.trace.rs[s["halt_k"]], res.rho_abs)
        h, nbytes = digest_tree(self.out)
        self.graph_info = {"graph.edges": len(res.graph.edges), "graph.D": res.graph.diameter}
        halt = int(s["halt_k"])
        return Outcome({"radius": halt}, halt, h.hexdigest(), {"harness": nbytes})

    def context(self) -> dict:
        return {"seed": self.seed, "n": self.n, "d": self.d, "rho": self.rho,
                "edge_prob": er_prob(self.n), **self.graph_info}


class CliWorkload(Workload):
    """One in-process pass of hullstop.cli.main over four subcommands."""

    name = "cli"

    def __init__(self, seed, smoke, work_dir):
        super().__init__(seed, smoke, work_dir)
        if smoke:
            self.commands = [
                ("compare", ["--nodes", "6", "--dim", "2", "--rho", "0.01",
                             "--edge-prob", f"{er_prob(6):.6g}"]),
                ("lse", ["--nodes", "5", "--k-max", "20"]),
                ("funccalc", ["--nodes", "6"]),
                ("hull", ["--nodes", "5", "--dim", "2", "--points", "3",
                          "--edge-prob", f"{er_prob(5):.6g}"]),
            ]
        else:
            # compare and hull get edge_prob 4 ln n / n like the other
            # workloads; at the CLI default of 0.3 their diameter, and with it
            # their cost, swings with the seed far more than any bound allows
            self.commands = [
                ("compare", ["--nodes", "25", "--dim", "10", "--rho", "0.01",
                             "--edge-prob", f"{er_prob(25):.6g}"]),
                ("lse", []),
                ("funccalc", ["--nodes", "50"]),
                ("hull", ["--nodes", "20", "--dim", "3", "--points", "5",
                          "--edge-prob", f"{er_prob(20):.6g}"]),
            ]

    def setup(self):
        import hullstop.cli

        self.cli = hullstop.cli

    def argv(self, name, extra):
        return [name, *extra, "--seed", str(self.seed), "--out-dir", str(self.out / name)]

    def _command(self, tracer, name, extra):
        buf = io.StringIO()
        with tracer.span("cli." + name), contextlib.redirect_stdout(buf):
            rc = self.cli.main(self.argv(name, extra))
        return name, rc, buf.getvalue()

    def parts(self, tracer):
        return [functools.partial(self._command, tracer, name, extra)
                for name, extra in self.commands]

    def _json(self, *parts):
        return json.loads(self.out.joinpath(*parts).read_text())

    def check(self, results) -> Outcome:
        rcs = {name: rc for name, rc, _ in results}
        stdout = {name: out for name, _, out in results}
        bad = {k: v for k, v in rcs.items() if v != 0}
        if bad:
            raise CheckFailed(f"cli commands exited non-zero: {bad}")
        halts = {}
        for row in self._json("compare", "compare.json"):
            if row["halted"] is not True or row["within_2rho"] is not True:
                raise CheckFailed(f"compare {row['method']}: halted={row['halted']} "
                                  f"within_2rho={row['within_2rho']}")
            halts[row["method"]] = int(row["halt_k"])
        fc = self._json("funccalc", "summary.json")
        for flag in ("halted", "certificate_ok", "holder_ok_every_step"):
            if fc[flag] is not True:
                raise CheckFailed(f"funccalc {flag} is {fc[flag]}")
        rows = np.loadtxt(self.out / "funccalc" / "states.csv", delimiter=",", skiprows=1,
                          ndmin=2)
        last = rows[rows[:, 0] == rows[:, 0].max()]
        if int(last[0, 0]) != fc["halt_k"]:
            raise CheckFailed(f"funccalc states end at {int(last[0, 0])}, halt_k {fc['halt_k']}")
        final = np.zeros((int(last[:, 1].max()) + 1, int(last[:, 2].max()) + 1))
        final[last[:, 1].astype(int), last[:, 2].astype(int)] = last[:, 5]
        _check_spread("funccalc", final, fc["rho"])
        if self._json("hull", "summary.json")["agreement"] is not True:
            raise CheckFailed("hull agreement is not true")
        lse_steps = int(self._json("lse", "summary.json")["k_steps"])
        h = hashlib.sha256(json.dumps(stdout, sort_keys=True).encode())
        h, nbytes = digest_tree(self.out, h)
        steps = sum(halts.values()) + lse_steps + int(fc["halt_k"])
        return Outcome(halts, steps, h.hexdigest(), {"cli": nbytes})

    def context(self) -> dict:
        from hullstop.cli import build_parser
        from hullstop.graph import generate_digraph

        cmds = {}
        for name, extra in self.commands:
            args = build_parser().parse_args(self.argv(name, extra))
            g = generate_digraph(args.nodes, args.topology, args.seed, args.edge_prob)
            cmds[name] = {"argv": self.argv(name, extra), "n": args.nodes, "dim": args.dim,
                          "graph.edges": len(g.edges), "graph.D": g.diameter}
        return {"seed": self.seed, "commands": cmds}


class ErWorkload(StopWorkload):
    name = "stop_er1000"

    def __init__(self, seed, smoke, work_dir):
        n, d, rho = (30, 3, 1e-6) if smoke else (1000, 4, 1e-8)
        super().__init__(seed, smoke, work_dir, model="erdos_renyi", n=n, d=d, rho=rho)


class RingWorkload(StopWorkload):
    name = "stop_ring"

    def __init__(self, seed, smoke, work_dir):
        n, d = (8, 3) if smoke else (60, 10)
        super().__init__(seed, smoke, work_dir, model="ring", n=n, d=d, rho=1e-3)


WORKLOADS = {cls.name: cls for cls in (ExperimentWorkload, ErWorkload, RingWorkload, CliWorkload)}
