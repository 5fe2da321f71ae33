"""Ratio consensus on a directed network, and why trajectories never escape.

Every node starts with a vector. Each step mixes neighbor values through a
column stochastic matrix and divides by a scalar mass that follows the same
recursion. The ratio converges to the average of the initial vectors, and
the cloud of node values at step k+1 always lies inside the convex hull of
the cloud at step k.

Run:  python3 demos/01_ratio_consensus.py
"""
import numpy as np

from hullstop import (
    PointSet,
    consensus_limit,
    generate_digraph,
    hull_diameter,
    is_convex_decreasing,
    make_weights,
    pairwise_spread,
    run_consensus,
)

n, d = 12, 2
g = generate_digraph(n, "erdos_renyi", seed=11, edge_prob=0.3)
W = make_weights(g, "column")
x0 = np.random.default_rng(1).random((n, d)) * 4.0 - 2.0

print(f"network: {n} nodes, {len(g.edges)} directed edges, diameter {g.diameter}")

tr = run_consensus(W, x0, 60)
target = consensus_limit(x0, W)
print(f"average of initial vectors: {x0.mean(axis=0)}")
print(f"fixed point of the ratio:   {target}")

print("\nstep   spread          hull diameter   nested in previous hull")
for k in (0, 5, 10, 20, 40, 60):
    spread = pairwise_spread(tr.rs[k])
    diam = hull_diameter(PointSet(tr.rs[k]))
    nested = "-" if k == 0 else str(
        is_convex_decreasing(tr.rs[k - 1], tr.rs[k]))
    print(f"{k:4d}   {spread:.6e}    {diam:.6e}    {nested}")

err = np.abs(tr.rs[-1] - target).max()
print(f"\nmax deviation from the average after 60 steps: {err:.3e}")
print("the spread contracts and every step stays inside the previous hull")
