"""Peer-to-peer convex hull consensus.

Each node starts from the extreme points of its own point set and, every
synchronous round, replaces its estimate with the extreme points of the
union of its in-neighbors' estimates. After as many rounds as the graph
diameter every node holds the extreme set of the global union, so the
protocol reaches exact agreement in finite time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PointSet, _Verdicts, extreme_points
from .graph import DiGraph

__all__ = [
    "HullNodeState",
    "hull_round",
    "run_hull_consensus",
    "encode_extreme_set",
    "decode_extreme_set",
]


@dataclass
class HullNodeState:
    ext: PointSet


def hull_round(states, g: DiGraph):
    """One synchronous round: every node unions the estimates of its senders
    (itself included via the self-loop) and keeps the extreme points. Nodes
    whose unions are equal share one extreme set, and nodes share membership
    verdicts; both last this round only, so a round depends on its states
    alone."""
    if len(states) != g.n:
        raise ValueError(f"got {len(states)} hull states for {g.n} nodes")
    dims = {s.ext.d for s in states}
    if len(dims) != 1:
        raise ValueError(f"mixed dimensions in hull states: {sorted(dims)}")
    extremes: dict = {}
    verdicts = _Verdicts()
    out = []
    for i in range(g.n):
        probe = PointSet(np.vstack([states[j].ext.points for j in g.in_adj[i]]))
        if probe not in extremes:
            extremes[probe] = extreme_points(probe, verdicts=verdicts)
        out.append(HullNodeState(extremes[probe]))
    return out


def run_hull_consensus(sets, g: DiGraph, return_history: bool = False):
    """Run the protocol for diameter-many rounds.

    Returns the per-node extreme sets after the final round; with
    return_history=True also the list of per-round snapshots, round 0 being
    the initial extreme sets of the nodes' own inputs.
    """
    if len(sets) != g.n:
        raise ValueError(f"got {len(sets)} point sets for {g.n} nodes")
    states = [HullNodeState(extreme_points(s)) for s in sets]
    history = [[s.ext for s in states]]
    for _ in range(g.diameter):
        states = hull_round(states, g)
        history.append([s.ext for s in states])
    final = [s.ext for s in states]
    if return_history:
        return final, history
    return final


def encode_extreme_set(ps: PointSet) -> list:
    """Wire format for one message: [d, m, then the m*d coordinates in
    lexicographic point order]."""
    m, d = ps.points.shape
    return [float(d), float(m)] + [float(v) for v in ps.points.ravel()]


def decode_extreme_set(seq) -> PointSet:
    seq = list(seq)
    if len(seq) < 2:
        raise ValueError("extreme set message needs at least d and m")
    head = [float(v) for v in seq[:2]]
    if not all(v.is_integer() for v in head):
        raise ValueError(f"message header d and m must be integers, got {head[0]}, {head[1]}")
    d, m = int(head[0]), int(head[1])
    if d < 1 or m < 1 or len(seq) != 2 + m * d:
        raise ValueError(f"coordinate payload mismatch: d={d}, m={m}, len={len(seq)}")
    return PointSet(np.asarray(seq[2:], dtype=float).reshape(m, d))
