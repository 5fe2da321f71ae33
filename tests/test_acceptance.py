"""Acceptance gate: one test per shipped guarantee, at the stated
tolerances and runtime budgets. The terminal summary prints a PASS/FAIL
line per criterion (see conftest.py)."""

import json
import os
import time

import numpy as np
import pytest

import hullstop.cli as cli
from hullstop import (
    ExperimentConfig,
    bandwidth_accounting,
    extreme_points,
    funccalc_error,
    funccalc_init,
    generate_digraph,
    is_convex_decreasing,
    lse_batch,
    lse_error_bound,
    lse_gram,
    lse_payload_states,
    make_weights,
    minmax_envelope,
    pairwise_spread,
    polynomial_basis,
    registered_function,
    run_consensus,
    run_experiment,
    run_hull_consensus,
    run_radius_stopping,
    scalar_vector_equivalence_check,
    unflatten_payload,
    vector_norm,
    consensus_limit,
    windowed_radius_trace,
)


def _er(n, seed, p=0.35):
    return generate_digraph(n, "erdos_renyi", seed=seed, edge_prob=p)


@pytest.fixture(scope="module")
def radius_traces():
    """Fifty stopped runs across sizes, dimensions, engines and thresholds,
    shared by the containment, bound and simultaneity criteria."""
    traces = []
    rng = np.random.default_rng(2024)
    for i in range(50):
        n = int(rng.integers(3, 13))
        d = int(rng.integers(1, 4))
        rho = float(10.0 ** rng.uniform(-4, -2))
        kind = "column" if i % 3 else "row"
        g = _er(n, seed=500 + i)
        W = make_weights(g, kind)
        x0 = np.random.default_rng([9, i]).random((n, d)) * 2.0
        tr = run_radius_stopping(g, W, x0, rho=rho, k_max=50_000, history=True)
        assert tr.halted, f"instance {i} did not stop"
        traces.append((g, x0, tr))
    return traces


def test_c01_hull_nesting_every_step():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    for run in range(100):
        n = int(rng.integers(5, 21))
        d = int(rng.integers(2, 5))
        kind = "column" if run % 2 == 0 else "row"
        g = _er(n, seed=1000 + run)
        W = make_weights(g, kind)
        x0 = np.random.default_rng([run, 1]).random((n, d))
        tr = run_consensus(W, x0, 50)
        for k in range(50):
            assert is_convex_decreasing(tr.states[k], tr.states[k + 1]), \
                f"hull grew at step {k} (run {run}, engine {kind})"
    assert time.perf_counter() - t0 < 30.0


def test_c02_hull_agreement_exact():
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    for case in range(50):
        n = int(rng.integers(4, 16))
        d = int(rng.integers(1, 4))
        g = _er(n, seed=2000 + case)
        pts_rng = np.random.default_rng([case, 2])
        sets = [pts_rng.normal(size=(int(rng.integers(2, 5)), d)) for _ in range(n)]
        final = run_hull_consensus(sets, g)
        truth = extreme_points(np.vstack(sets))
        assert all(s == truth for s in final), f"disagreement in case {case}"
    assert time.perf_counter() - t0 < 10.0


def test_c03_ball_containment(radius_traces):
    for idx, (g, x0, tr) in enumerate(radius_traces):
        assert tr.windows, f"instance {idx} recorded no window"
        for w in tr.windows:
            dists = vector_norm(
                tr.rs[w.record_t][:, None, :] - tr.rs[w.start_t][None, :, :],
                tr.p, axis=-1)
            assert np.all(dists <= w.rbar[:, None] + 1e-9), \
                f"containment broken in instance {idx}, window {w.index}"


def test_c04_radius_bounded_and_vanishing(radius_traces):
    # recorded radii are bounded by the window-start envelope spread
    for idx, (g, x0, tr) in enumerate(radius_traces):
        for w in tr.windows:
            env = minmaxes = minmax_envelope(tr.rs[w.start_t])
            steps = w.record_t - w.start_t
            bound = steps * float(vector_norm(env.M - env.m, tr.p)) + 1e-9
            assert w.rbar.max() <= bound, \
                f"envelope bound broken in instance {idx}, window {w.index}"
    # fixed-window recursion: same bound with the window exactly D long
    for seed in range(10):
        g = _er(8 + seed % 5, seed=3000 + seed)
        W = make_weights(g, "column")
        x0 = np.random.default_rng([seed, 3]).random((g.n, 2)) * 3.0
        wt = windowed_radius_trace(g, W, x0, max_windows=12, history=True)
        D = wt.Dbound
        for w in wt.windows:
            env = minmax_envelope(wt.rs[w.index * D])
            bound = D * float(vector_norm(env.M - env.m, wt.p)) + 1e-9
            assert w.rbar.max() <= bound
    # radii sink below 1e-6 within the iteration cap on every instance tried
    cases = [
        (generate_digraph(25, "ring", seed=0), 2, 31),
        (_er(25, seed=7, p=0.15), 10, 32),
        (_er(12, seed=8), 3, 33),
        (_er(20, seed=9, p=0.25), 4, 34),
    ]
    for g, d, sd in cases:
        W = make_weights(g, "column")
        x0 = np.random.default_rng([sd, 4]).random((g.n, d))
        wt = windowed_radius_trace(g, W, x0, eps=1e-6, k_max=100_000, history=True)
        assert wt.rs.shape[0] - 1 <= 100_000
        assert wt.windows[-1].rbar.max() < 1e-6, \
            f"radius did not vanish on n={g.n} instance"


def test_c05_benchmark_network_halt(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(n=25, dim=10, topology="erdos_renyi", edge_prob=0.15,
                           seed=7, engine="ratio", stopping="radius", rho=0.01,
                           rho_relative=True, k_max=2000,
                           out_dir=str(tmp_path / "c5"))
    res = run_experiment(cfg)
    tr = res.trace
    assert tr.halted
    assert tr.Dbound <= tr.halt_t <= 600
    rho = res.rho_abs
    assert pairwise_spread(tr.rs[tr.halt_t], 2.0) <= 2 * rho + 1e-12
    g, W = res.graph, make_weights(res.graph, "column")
    x0 = tr.xs[0]
    lim = consensus_limit(x0, W)
    dev = vector_norm(tr.rs[tr.halt_t] - lim, 2.0, axis=-1)
    assert dev.max() <= 2 * rho + 1e-12
    assert time.perf_counter() - t0 < 5.0


def test_c06_halt_is_simultaneous(radius_traces):
    for idx, (g, x0, tr) in enumerate(radius_traces):
        # the one halt iteration closes the trace and every node carries
        # the halt bit there
        assert tr.halt_t == tr.rs.shape[0] - 1
        assert tr.bs[tr.halt_t].all(), f"instance {idx}: lagging node at halt"
        # the halt fires exactly one flooding window after the first
        # boundary where any node detects contraction
        first_det = next(w for w in tr.windows if w.detected.any())
        assert tr.halt_t == first_det.record_t + tr.Dbound


def test_c07_bandwidth_constants():
    radius = bandwidth_accounting("radius", B=32)
    box = bandwidth_accounting("box", B=32, d=10)
    assert radius == 33
    assert box == 640
    assert isinstance(radius, int) and isinstance(box, int)
    assert box / radius > 19.0


def test_c08_least_squares_network():
    rng = np.random.default_rng(88)
    n = 10
    theta_true = np.array([1.0, -0.5, 0.25])
    basis = polynomial_basis(2)
    xs = rng.uniform(-2.0, 2.0, n)
    design = np.stack([np.ones(n), xs, xs ** 2], axis=1)
    ys = design @ theta_true + rng.normal(0.0, 0.05, n)
    theta_hat = lse_batch(xs, ys, basis)
    G_true, z_true = lse_gram(xs, ys, basis)

    g = _er(n, seed=4000)
    W = make_weights(g, "column")
    tr = run_consensus(W, lse_payload_states(xs, ys, basis).x, 250)

    errs = np.full((251, n), np.nan)
    for k in range(251):
        for i in range(n):
            Mi, zi = unflatten_payload(tr.states[k, i], 3)
            try:
                eb = lse_error_bound(Mi, zi, G_true, z_true)
            except np.linalg.LinAlgError:
                continue  # singular early Gram estimate is legal
            theta_i = np.linalg.solve(Mi, zi)
            errs[k, i] = float(vector_norm(theta_i - theta_hat, 2.0))
            if eb.applicable:
                assert eb.holds, f"error bound broken at k={k}, node {i}"
    # a finite horizon n0 <= 10^4 after which every node is within 1e-6
    below = np.all(np.nan_to_num(errs, nan=np.inf) < 1e-6, axis=1)
    assert below.any(), "no iteration reached 1e-6 agreement"
    n0 = int(np.argmax(below))
    assert n0 <= 10_000
    assert below[n0:].all(), "error rose above 1e-6 after first crossing"


def test_c09_function_calculation():
    n = 6
    u = np.random.default_rng(99).random(n)
    g = _er(n, seed=5000, p=0.45)
    W = make_weights(g, "column")
    st0 = funccalc_init(u)
    # the engine's limit is the original value vector
    assert np.abs(consensus_limit(st0.x, W) - u).max() <= 1e-8
    long = run_consensus(W, st0.x, 2000)
    assert np.abs(long.states[-1] - u).max() <= 1e-8

    f, C, alpha = registered_function("max", n)
    rho = 1e-3
    tr = run_radius_stopping(g, W, st0.x, rho=rho, history=True)
    assert tr.halted
    for k in range(tr.rs.shape[0]):
        for i in range(n):
            lhs, rhs, ok = funccalc_error(f, C, alpha, tr.rs[k, i], u)
            assert ok, f"Holder bound broken at k={k}, node {i}"
    cert = C * (2.0 * rho) ** alpha
    worst = max(abs(f(tr.rs[tr.halt_t, i]) - f(u)) for i in range(n))
    assert worst <= cert + 1e-12


def test_c10_scalar_vector_bit_equality():
    rng = np.random.default_rng(66)
    for case in range(20):
        n = int(rng.integers(3, 11))
        d = int(rng.integers(1, 5))
        kind = "column" if case < 10 else "row"
        g = _er(n, seed=6000 + case)
        W = make_weights(g, kind)
        x0 = np.random.default_rng([case, 5]).normal(size=(n, d))
        assert scalar_vector_equivalence_check(x0, W, 40), \
            f"case {case} ({kind}) diverged between scalar and vector runs"


def test_c11_byte_identical_reruns(tmp_path):
    configs = [
        dict(n=8, dim=2, seed=3, stopping="radius", rho=1e-3),
        dict(n=6, dim=3, seed=4, stopping="box", rho=1e-3),
        dict(n=6, dim=2, seed=5, stopping="hull", rho=1e-2),
    ]
    for j, kw in enumerate(configs):
        out = str(tmp_path / f"det{j}")
        cfg = ExperimentConfig(topology="erdos_renyi", edge_prob=0.4,
                               out_dir=out, **kw)
        res1 = run_experiment(cfg)
        blobs = {name: open(p, "rb").read() for name, p in res1.paths.items()}
        res2 = run_experiment(ExperimentConfig(topology="erdos_renyi",
                                               edge_prob=0.4, out_dir=out, **kw))
        assert res1.paths.keys() == res2.paths.keys()
        for name, p in res2.paths.items():
            assert open(p, "rb").read() == blobs[name], f"{name} differed on rerun"
    # the command line wrapper is deterministic too
    out = str(tmp_path / "detcli")
    args = ["run", "--nodes", "7", "--dim", "2", "--seed", "11",
            "--rho", "0.001", "--out-dir", out]
    assert cli.main(args) == 0
    blobs = {n: open(os.path.join(out, n), "rb").read() for n in os.listdir(out)}
    assert cli.main(args) == 0
    for name, blob in blobs.items():
        assert open(os.path.join(out, name), "rb").read() == blob, name
