"""Network least squares: every node ends up with the global fit.

Each node owns a few scattered measurements (x, y) of an unknown polynomial.
Locally it can only form its own normal equations. Averaging the flattened
Gram payloads by ratio consensus gives every node the global normal
equations, so each node can solve for the fit all data supports, without
any node ever seeing another node's raw measurements.

Run:  python3 demos/04_least_squares.py
"""
import numpy as np

from hullstop import (
    generate_digraph,
    lse_batch,
    lse_consensus_estimate,
    lse_error_bound,
    lse_gram,
    lse_payload_states,
    make_weights,
    polynomial_basis,
    run_consensus,
    unflatten_payload,
)

rng = np.random.default_rng(4)
n = 10
theta_true = np.array([0.8, -1.5, 0.3])
basis = polynomial_basis(2)
xs = rng.uniform(-2.0, 2.0, n)
ys = np.vander(xs, 3, increasing=True) @ theta_true + rng.normal(0.0, 0.05, n)

theta_batch = lse_batch(xs, ys, basis)
print(f"true coefficients:        {theta_true}")
print(f"centralized batch fit:    {theta_batch}")

g = generate_digraph(n, "erdos_renyi", seed=12, edge_prob=0.3)
W = make_weights(g, "column")
state0 = lse_payload_states(xs, ys, basis)
tr = run_consensus(W, state0.x, 200)

m = len(basis)
worst = 0.0
for i in range(n):
    Mi, zi = unflatten_payload(tr.rs[-1, i], m)
    theta_i = lse_consensus_estimate(Mi, zi)
    worst = max(worst, float(np.abs(theta_i - theta_batch).max()))
theta_0 = lse_consensus_estimate(*unflatten_payload(tr.rs[-1, 0], m))
print(f"node 0 estimate at k=200: {theta_0}")
print(f"worst node deviation from the batch fit: {worst:.3e}")

# the certificate a node can check locally once consensus is tight
M_true, z_true = lse_gram(xs, ys, basis)
Mi, zi = unflatten_payload(tr.rs[-1, 3], m)
eb = lse_error_bound(Mi, zi, M_true, z_true)
print(f"\nlocal error certificate at node 3: applicable = {eb.applicable}, "
      f"bound = {eb.bound:.3e}, holds = {eb.holds}")
