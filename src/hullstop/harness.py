"""Deterministic experiment runner.

Wires graph generation, the consensus engines, the stopping protocols and
the applications into reproducible end-to-end runs: a config plus its seed
determines every emitted byte. Guarantee fields in the summary are
recomputed from the written trace files by a verification pass rather than
copied from the in-memory run.

A run keeps no history to write its artifacts: their formatters are
sinks of the step loop (consensus._run_windows), which write states.csv
and termination.csv as each step is made, and the verification pass
reads states.csv back in blocks of whole steps, keeping only the last one.
Every artifact is written under a temporary name and renamed once the run
and its verification have ended (artifact_dir), so a run that raises
leaves none of them.
"""

from __future__ import annotations

import json
import os
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass, asdict

import numpy as np

from .consensus import (StopTrace, _StateRows, _resolve_window, _run_windows, _state_blocks,
                        consensus_limit)
from .errors import InvariantViolation
from .geometry import _norm_order, pairwise_spread, vector_norm
from .graph import MODELS, DiGraph, _integer, generate_digraph, graph_to_json, make_weights
from .termination import (_RULES, _TerminationRows, bandwidth_accounting, run_box_stopping,
                          run_hull_stopping, run_radius_stopping)

__all__ = ["ExperimentConfig", "RunResult", "run_experiment", "compare_criteria",
           "verify_states_file"]


def _norm_json(norm):
    """The norm order as JSON: "inf" or a float."""
    return "inf" if np.isinf(float(norm)) else float(norm)


@dataclass
class ExperimentConfig:
    n: int = 10
    dim: int = 2
    topology: str = "erdos_renyi"
    edge_prob: float = 0.3
    seed: int = 0
    engine: str = "ratio"
    stopping: str = "radius"
    rho: float | None = 0.01
    rho_relative: bool = False
    norm: float = 2.0
    dbound: int | None = None
    k_max: int = 100_000
    out_dir: str = "out"

    def validate(self):
        # sizes are kept as the ints _integer returns, which JSON can write
        self.n, self.dim = _integer("n", self.n), _integer("dim", self.dim)
        if self.n < 1:
            raise ValueError(f"need at least one node, got n={self.n}")
        if self.dim < 1:
            raise ValueError(f"need dim >= 1, got {self.dim}")
        if self.topology not in MODELS:
            raise ValueError(f"unknown topology {self.topology!r}")
        if not (0.0 < self.edge_prob <= 1.0):
            raise ValueError(f"edge_prob must be in (0, 1], got {self.edge_prob}")
        self.seed = _integer("seed", self.seed, 0)
        if self.engine not in ("ratio", "row"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.stopping not in _RULES:
            raise ValueError(f"unknown stopping {self.stopping!r}")
        if self.stopping != "none":
            if self.rho is None or not self.rho > 0:
                raise ValueError(f"stopping {self.stopping!r} needs rho > 0, got {self.rho}")
        _norm_order(self.norm)
        if self.dbound is not None:
            self.dbound = _integer("dbound", self.dbound, 1)
        self.k_max = _integer("k_max", self.k_max, 1)
        return self

    def to_json(self) -> str:
        obj = asdict(self)
        obj["norm"] = _norm_json(self.norm)
        return _json_text(obj)


def _json_text(obj) -> str:
    """The JSON artifact format: two-space indent and a closing newline."""
    return json.dumps(obj, indent=2) + "\n"


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(_json_text(obj))


@contextmanager
def artifact_dir(out_dir, graph: DiGraph):
    """Create out_dir and yield (path, summary): path(name) is the file the
    caller writes artifact name into, a temporary name in out_dir, and
    summary a dict that becomes summary.json. graph.json is written first.
    Once the caller's block has ended, every file is renamed to its name;
    if the block raises, every temporary file is removed instead, so a
    failing run leaves no artifact and never half-overwrites a previous
    run's set."""
    os.makedirs(out_dir, exist_ok=True)
    staged: dict = {}

    def path(name):
        staged[name] = os.path.join(out_dir, f".{name}.part")
        return staged[name]

    try:
        with open(path("graph.json"), "w") as fh:
            fh.write(graph_to_json(graph) + "\n")
        summary: dict = {}
        yield path, summary
        write_json(path("summary.json"), summary)
    except BaseException:
        for tmp in staged.values():
            with suppress(FileNotFoundError):
                os.remove(tmp)
        raise
    for name, tmp in staged.items():
        os.replace(tmp, os.path.join(out_dir, name))


@dataclass
class RunResult:
    cfg: ExperimentConfig
    graph: DiGraph
    trace: StopTrace
    rho_abs: float | None
    summary: dict
    paths: dict


def _initial_states(cfg: ExperimentConfig) -> np.ndarray:
    rng = np.random.default_rng([cfg.seed, 1])
    return rng.random((cfg.n, cfg.dim))


def _build(cfg: ExperimentConfig):
    g = generate_digraph(cfg.n, cfg.topology, cfg.seed, cfg.edge_prob)
    W = make_weights(g, "column" if cfg.engine == "ratio" else "row")
    x0 = _initial_states(cfg)
    return g, W, x0


def _resolve_rho(cfg: ExperimentConfig, x0, W) -> float | None:
    if cfg.stopping == "none" or cfg.rho is None:
        return None
    if not cfg.rho_relative:
        return float(cfg.rho)
    limit = consensus_limit(x0, W)
    return float(cfg.rho) * float(vector_norm(limit, cfg.norm))


def verify_states_file(path, p: float) -> dict:
    """Recompute the guarantee quantities from a written state CSV: its r
    column, read in blocks of whole steps (consensus._state_blocks) of
    which only the last step is kept."""
    steps = 0
    for rs, in _state_blocks(path, ("r",)):
        steps += len(rs)
        final = rs[-1].copy()
        del rs  # before the next block is parsed
    return {
        "k_steps": steps - 1,
        "final_spread": pairwise_spread(final, p),
    }


def _write_run(cfg: ExperimentConfig, g: DiGraph, W, x0, rho_abs, D, path):
    """Run cfg's stopping rule, streaming states.csv and, for the radius
    rule, termination.csv into path(name) as each step is made; returns the
    run's StopTrace. The row formatters, with their per-file templates, end
    with this call."""
    with ExitStack() as files:
        sinks = [_StateRows(files.enter_context(open(path("states.csv"), "w", newline="")))]
        if cfg.stopping == "radius":
            sinks.append(_TerminationRows(files.enter_context(
                open(path("termination.csv"), "w", newline="")), g.n, D))
        return _run_windows(_RULES[cfg.stopping](g, rho_abs, cfg.norm), W, x0, D, cfg.k_max,
                            sinks=sinks)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """End-to-end deterministic run; writes graph.json, config.json,
    states.csv, termination.csv (radius stopping only) and summary.json
    into cfg.out_dir, streaming the two CSVs from the run. trace is the
    run's StopTrace without history ("none" takes all k_max steps)."""
    cfg.validate()
    g, W, x0 = _build(cfg)
    rho_abs = _resolve_rho(cfg, x0, W)
    radius, stopped = cfg.stopping == "radius", cfg.stopping != "none"
    # resolved before out_dir is made; "none" has no window to check it against
    D = _resolve_window(g, cfg.dbound) if stopped else None

    paths = {name: os.path.join(cfg.out_dir, name) for name in
             ("graph.json", "config.json", "states.csv", "termination.csv",
              "summary.json")}
    if not radius:
        paths.pop("termination.csv")
    with artifact_dir(cfg.out_dir, g) as (path, summary):
        with open(path("config.json"), "w") as fh:
            fh.write(cfg.to_json())
        trace = _write_run(cfg, g, W, x0, rho_abs, D, path)
        halt_t = trace.halt_t

        # verification pass: guarantee fields come from the files, not the run
        checked = verify_states_file(path("states.csv"), cfg.norm)
        if checked["k_steps"] != trace.steps:
            raise InvariantViolation(
                f"trace length mismatch: file {checked['k_steps']}, run {trace.steps}")
        if halt_t is not None and halt_t != checked["k_steps"]:
            raise InvariantViolation(
                f"halt iteration {halt_t} does not close the written trace")

        summary.update({
            "halt_k": halt_t,
            "windows": trace.n_windows,
            "final_spread": checked["final_spread"],
            "rho": rho_abs,
            "guarantee_2rho_ok": (checked["final_spread"] <= 2.0 * rho_abs
                                  if halt_t is not None else None),
            "halted": halt_t is not None,
            "k_steps": checked["k_steps"],
            "stopping": cfg.stopping,
            "engine": cfg.engine,
            "n": cfg.n,
            "dim": cfg.dim,
            "seed": cfg.seed,
            "norm": _norm_json(cfg.norm),
            "dbound": trace.Dbound if stopped else None,
            "bandwidth_bits": (bandwidth_accounting(cfg.stopping, d=cfg.dim,
                                                    hull_size=trace.max_points)
                               if stopped else 0),
        })
    return RunResult(cfg, g, trace, rho_abs, summary, paths)


def compare_criteria(cfg: ExperimentConfig) -> list:
    """Run all three stopping protocols over the identical consensus
    sequence (same graph, same seed, same initial states) and tabulate
    halt iteration, extra bandwidth and the spread achieved at halt."""
    cfg.validate()
    if cfg.stopping == "none":
        raise ValueError("compare needs a rho, so stopping 'none' is not allowed")
    g, W, x0 = _build(cfg)
    rho_abs = _resolve_rho(cfg, x0, W)
    rows = []
    for method, run in (("radius", run_radius_stopping), ("box", run_box_stopping),
                        ("hull", run_hull_stopping)):
        trace = run(g, W, x0, rho_abs, Dbound=cfg.dbound, p=cfg.norm, k_max=cfg.k_max)
        spread = pairwise_spread(trace.rs[trace.halt_t], cfg.norm) if trace.halted else None
        bits = bandwidth_accounting(method, d=cfg.dim, hull_size=trace.max_points)
        rows.append({
            "method": method,
            "halted": trace.halted,
            "halt_k": trace.halt_t,
            "windows": trace.n_windows,
            "extra_bits": bits,
            "spread_at_halt": spread,
            "within_2rho": (spread <= 2.0 * rho_abs) if spread is not None else None,
            "rho": rho_abs,
        })
    return rows
