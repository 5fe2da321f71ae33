"""Deterministic experiment runner.

Wires graph generation, the consensus engines, the stopping protocols and
the applications into reproducible end-to-end runs: a config plus its seed
determines every emitted byte. Guarantee fields in the summary are
recomputed from the written trace files by a verification pass rather than
copied from the in-memory run.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, asdict, replace

import numpy as np

from .consensus import (ConsensusTrace, consensus_limit, read_state_csv, run_consensus,
                        write_state_csv)
from .errors import InvariantViolation
from .geometry import _norm_order, pairwise_spread, vector_norm
from .graph import MODELS, DiGraph, _integer, generate_digraph, graph_to_json, make_weights
from .termination import (StopTrace, bandwidth_accounting, run_box_stopping,
                          run_hull_stopping, run_radius_stopping,
                          write_termination_csv)

__all__ = ["ExperimentConfig", "RunResult", "run_experiment", "compare_criteria",
           "verify_states_file"]

_STOPPINGS = ("radius", "box", "hull", "none")
# bits per transmitted float in the bandwidth figures
_WORD_BITS = 32


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
        if self.stopping not in _STOPPINGS:
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

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        obj = json.loads(text)
        if obj.get("norm") == "inf":
            obj["norm"] = float("inf")
        return cls(**obj)


def _json_text(obj) -> str:
    """The JSON artifact format: two-space indent and a closing newline."""
    return json.dumps(obj, indent=2) + "\n"


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(_json_text(obj))


@contextmanager
def artifact_dir(out_dir, graph: DiGraph):
    """Create out_dir with graph.json and yield a dict for the caller to fill
    while it writes its files; the dict becomes summary.json unless they raise."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "graph.json"), "w") as fh:
        fh.write(graph_to_json(graph) + "\n")
    summary: dict = {}
    yield summary
    write_json(os.path.join(out_dir, "summary.json"), summary)


@dataclass
class RunResult:
    cfg: ExperimentConfig
    graph: DiGraph
    trace: object
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


def _stopping_trace(cfg, g, W, x0, rho_abs, history: bool = False) -> StopTrace:
    run = {"radius": run_radius_stopping, "box": run_box_stopping,
           "hull": run_hull_stopping}[cfg.stopping]
    return run(g, W, x0, rho_abs, Dbound=cfg.dbound, p=cfg.norm, k_max=cfg.k_max,
               history=history)


def verify_states_file(path, p: float) -> dict:
    """Recompute the guarantee quantities from a written state CSV."""
    trace = read_state_csv(path)
    final = trace.states[-1]
    return {
        "k_steps": int(trace.states.shape[0] - 1),
        "final_spread": pairwise_spread(final, p),
    }


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """End-to-end deterministic run; writes graph.json, config.json,
    states.csv, termination.csv (radius stopping only) and summary.json
    into cfg.out_dir."""
    cfg.validate()
    g, W, x0 = _build(cfg)
    rho_abs = _resolve_rho(cfg, x0, W)
    if cfg.stopping == "none":
        trace = states = run_consensus(W, x0, cfg.k_max)
        stop, bits = None, 0
    else:
        trace = stop = _stopping_trace(cfg, g, W, x0, rho_abs, history=True)
        states = ConsensusTrace(cfg.engine, stop.rs, stop.xs, stop.ys)
        bits = bandwidth_accounting(cfg.stopping, _WORD_BITS, cfg.dim, stop.max_points)
    halt_t = stop.halt_t if stop else None

    paths = {name: os.path.join(cfg.out_dir, name) for name in
             ("graph.json", "config.json", "states.csv", "termination.csv",
              "summary.json")}
    with artifact_dir(cfg.out_dir, g) as summary:
        with open(paths["config.json"], "w") as fh:
            fh.write(cfg.to_json())
        write_state_csv(states, paths["states.csv"])
        if cfg.stopping == "radius":
            write_termination_csv(stop, paths["termination.csv"])
        else:
            paths.pop("termination.csv")

        # verification pass: guarantee fields come from the files, not the run
        checked = verify_states_file(paths["states.csv"], cfg.norm)
        if checked["k_steps"] != states.steps:
            raise InvariantViolation(
                f"trace length mismatch: file {checked['k_steps']}, run {states.steps}")
        if halt_t is not None and halt_t != checked["k_steps"]:
            raise InvariantViolation(
                f"halt iteration {halt_t} does not close the written trace")

        summary.update({
            "halt_k": halt_t,
            "windows": len(stop.windows) if stop else 0,
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
            "dbound": stop.Dbound if stop else None,
            "bandwidth_bits": bits,
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
    for method in ("radius", "box", "hull"):
        sub = replace(cfg, stopping=method)
        trace = _stopping_trace(sub, g, W, x0, rho_abs)
        spread = pairwise_spread(trace.rs[trace.halt_t], cfg.norm) if trace.halted else None
        bits = bandwidth_accounting(method, _WORD_BITS, cfg.dim, trace.max_points)
        rows.append({
            "method": method,
            "halted": trace.halted,
            "halt_k": trace.halt_t,
            "windows": len(trace.windows),
            "extra_bits": bits,
            "spread_at_halt": spread,
            "within_2rho": (spread <= 2.0 * rho_abs) if spread is not None else None,
            "rho": rho_abs,
        })
    return rows
