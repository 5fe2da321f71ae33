import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hullstop import (
    ErrorBound,
    flatten_payload,
    funccalc_error,
    funccalc_init,
    generate_digraph,
    lse_batch,
    lse_consensus_estimate,
    lse_error_bound,
    lse_error_bound_blocks,
    lse_error_bounds,
    lse_gram,
    lse_local_payload,
    lse_payload_states,
    make_weights,
    operator_norm,
    polynomial_basis,
    registered_function,
    run_consensus,
    unflatten_payload,
)
from hullstop.consensus import _CHUNK_ROWS

from oracles import lse_error_bound_reference


def test_polynomial_basis():
    basis = polynomial_basis(2)
    assert [g(3.0) for g in basis] == [1.0, 3.0, 9.0]
    with pytest.raises(ValueError):
        polynomial_basis(-1)


def test_local_payload_by_hand():
    basis = polynomial_basis(1)  # [1, x]
    G, z = lse_local_payload(2.0, 5.0, basis)
    assert np.array_equal(G, [[1.0, 2.0], [2.0, 4.0]])
    assert np.array_equal(z, [5.0, 10.0])


def test_gram_is_average_of_payloads():
    basis = polynomial_basis(2)
    xs = np.array([0.0, 1.0, 2.0, -1.0])
    ys = np.array([1.0, 0.5, 3.0, 2.0])
    G, z = lse_gram(xs, ys, basis)
    Gs, zs = zip(*(lse_local_payload(x, y, basis) for x, y in zip(xs, ys)))
    assert np.allclose(G, np.mean(Gs, axis=0))
    assert np.allclose(z, np.mean(zs, axis=0))


def test_batch_solution_exact_on_noiseless_polynomial():
    # samples drawn from a quadratic are recovered exactly
    theta = np.array([1.0, -2.0, 0.5])
    basis = polynomial_basis(2)
    xs = np.linspace(-2, 2, 9)
    ys = theta[0] + theta[1] * xs + theta[2] * xs ** 2
    assert lse_batch(xs, ys, basis) == pytest.approx(theta, abs=1e-10)


def test_batch_matches_lstsq_with_noise():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-3, 3, 40)
    ys = 2.0 - xs + 0.25 * xs ** 2 + rng.normal(0, 0.1, 40)
    basis = polynomial_basis(2)
    design = np.stack([np.ones_like(xs), xs, xs ** 2], axis=1)
    ref = np.linalg.lstsq(design, ys, rcond=None)[0]
    assert lse_batch(xs, ys, basis) == pytest.approx(ref, abs=1e-8)


def test_batch_rejects_degenerate_design():
    basis = polynomial_basis(3)
    xs = np.full(5, 2.0)  # one distinct sample point cannot fix a cubic
    ys = np.ones(5)
    with pytest.raises(ValueError):
        lse_batch(xs, ys, basis)


def test_payload_flattening_round_trip():
    rng = np.random.default_rng(1)
    M = rng.normal(size=(3, 3))
    z = rng.normal(size=3)
    v = flatten_payload(M, z)
    assert v.shape == (12,)
    M2, z2 = unflatten_payload(v, 3)
    assert np.array_equal(M, M2) and np.array_equal(z, z2)


def test_payload_states_average_to_gram():
    basis = polynomial_basis(2)
    rng = np.random.default_rng(2)
    xs = rng.uniform(-2, 2, 6)
    ys = rng.normal(size=6)
    st = lse_payload_states(xs, ys, basis)
    G, z = lse_gram(xs, ys, basis)
    Gm, zm = unflatten_payload(st.x.mean(axis=0), 3)
    assert np.allclose(Gm, G) and np.allclose(zm, z)


def test_payload_states_reject_mismatched_samples():
    basis = polynomial_basis(1)
    with pytest.raises(ValueError):
        lse_payload_states([1.0, 2.0, 3.0], [1.0, 2.0], basis)
    with pytest.raises(ValueError):
        lse_gram([1.0, 2.0, 3.0], [1.0, 2.0], basis)
    with pytest.raises(ValueError):
        lse_payload_states([], [], basis)


def test_gram_sums_payloads_in_sample_order():
    # bit for bit the running sum over samples in index order, then / n
    basis = polynomial_basis(4)
    rng = np.random.default_rng(8)
    xs = rng.uniform(-3, 3, 57)
    ys = rng.normal(size=57)
    G_ref, z_ref = np.zeros((5, 5)), np.zeros(5)
    for x, y in zip(xs, ys):
        Gj, zj = lse_local_payload(x, y, basis)
        G_ref += Gj
        z_ref += zj
    G, z = lse_gram(xs, ys, basis)
    assert G.tobytes() == (G_ref / 57).tobytes()
    assert z.tobytes() == (z_ref / 57).tobytes()


def test_consensus_estimates_converge_to_batch():
    rng = np.random.default_rng(3)
    n = 10
    theta = np.array([0.5, 1.5, -1.0])
    basis = polynomial_basis(2)
    xs = rng.uniform(-2, 2, n)
    ys = theta @ np.stack([np.ones_like(xs), xs, xs ** 2]) + rng.normal(0, 0.05, n)
    theta_hat = lse_batch(xs, ys, basis)
    g = generate_digraph(n, "erdos_renyi", seed=8, edge_prob=0.35)
    W = make_weights(g, "column")
    tr = run_consensus(W, lse_payload_states(xs, ys, basis).x, 300)
    errs = []
    for i in range(n):
        Mi, zi = unflatten_payload(tr.states[-1, i], 3)
        errs.append(np.linalg.norm(lse_consensus_estimate(Mi, zi) - theta_hat))
    assert max(errs) < 1e-10


def test_error_bound_holds_and_tightens():
    rng = np.random.default_rng(4)
    basis = polynomial_basis(2)
    xs = rng.uniform(-2, 2, 8)
    ys = rng.normal(size=8)
    G, z = lse_gram(xs, ys, basis)
    # a mild perturbation keeps the precondition m * dM < 1
    Mi = G + 1e-3 * rng.normal(size=G.shape)
    zi = z + 1e-3 * rng.normal(size=z.shape)
    eb = lse_error_bound(Mi, zi, G, z)
    assert eb.applicable and eb.holds
    assert eb.lhs == np.linalg.norm(np.linalg.solve(Mi, zi) - np.linalg.solve(G, z))
    # exact payload gives a zero bound up to roundoff
    eb0 = lse_error_bound(G, z, G, z)
    assert eb0.bound == pytest.approx(0.0, abs=1e-12)


def test_error_bound_inapplicable_region():
    G = np.eye(2)
    z = np.ones(2)
    # dM = 10, m = 1 -> m * dM >= 1
    eb = lse_error_bound(G, z, G + 10 * np.eye(2), z)
    assert eb == ErrorBound(eb.m, np.inf, np.inf, None, False)


# items of a kernel test batch: "near" applies, "flip" (a negated M_true)
# does not, "zero" has a zero row and column and is singular; "rank1" is a
# step-0 payload g g^T and "wild" a perturbation from 1e-3 to 1e3, each
# whichever way LAPACK and the bound decide it
_KINDS = ("near", "flip", "zero", "rank1", "wild")


def _lse_item(kind, M_true, z_true, rng):
    M = len(z_true)
    if kind == "near":
        return M_true + 1e-9 * rng.normal(size=(M, M)), z_true + 1e-9 * rng.normal(size=M)
    if kind == "flip":
        return -rng.uniform(0.5, 2.0) * M_true, rng.normal(size=M)
    if kind == "zero":
        Mi = M_true + rng.normal(size=(M, M))
        j = rng.integers(M)
        Mi[j, :] = Mi[:, j] = 0.0
        return Mi, rng.normal(size=M)
    if kind == "rank1":
        g = rng.uniform(-1.0, 1.0) ** np.arange(M)
        return np.outer(g, g), g * rng.normal()
    scale = 10.0 ** rng.uniform(-3, 3)
    return M_true + scale * rng.normal(size=(M, M)), z_true + scale * rng.normal(size=M)


def _lse_problem(M, kinds, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(M, M))
    M_true, z_true = A @ A.T / M + np.eye(M), rng.normal(size=M)
    Ms, zs = zip(*(_lse_item(kind, M_true, z_true, rng) for kind in kinds))
    return np.array(Ms), np.array(zs), M_true, z_true


def _bits(v):
    return np.float64(v).tobytes()


def _assert_matches_reference(eb, j, Mi, zi, M_true, z_true):
    """Item j of a kernel result against one per-item reference call."""
    try:
        ref = lse_error_bound_reference(Mi, zi, M_true, z_true)
    except np.linalg.LinAlgError:
        assert eb.singular[j] and not eb.applicable[j] and not eb.holds[j]
        assert np.isnan([eb.m[j], eb.C[j], eb.bound[j], eb.lhs[j]]).all()
        return
    assert not eb.singular[j] and eb.applicable[j] == ref.applicable
    assert [_bits(eb.m[j]), _bits(eb.C[j]), _bits(eb.bound[j])] == \
        [_bits(ref.m), _bits(ref.C), _bits(ref.bound)]
    if ref.applicable:
        assert _bits(eb.lhs[j]) == _bits(ref.lhs) and eb.holds[j] == ref.holds
    else:
        assert np.isnan(eb.lhs[j]) and not eb.holds[j]


@given(st.integers(min_value=1, max_value=5),
       st.lists(st.sampled_from(_KINDS), min_size=1, max_size=40),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_error_bounds_equal_one_call_per_item(M, kinds, seed):
    Ms, zs, M_true, z_true = _lse_problem(M, kinds, seed)
    eb = lse_error_bounds(Ms, zs, M_true, z_true)
    for j in range(len(kinds)):
        _assert_matches_reference(eb, j, Ms[j], zs[j], M_true, z_true)
    kinds = np.array(kinds)
    assert eb.applicable[kinds == "near"].all()
    assert not eb.applicable[np.isin(kinds, ["flip", "zero"])].any()
    assert eb.singular[kinds == "zero"].all()


@given(st.integers(min_value=1, max_value=5),
       st.lists(st.sampled_from(_KINDS), min_size=_CHUNK_ROWS + 2, max_size=_CHUNK_ROWS + 40),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=8, deadline=None)
def test_error_bound_blocks_keep_a_singular_item_to_its_block(M, kinds, seed):
    # a singular item on each side of the first block boundary
    kinds[_CHUNK_ROWS - 1] = kinds[_CHUNK_ROWS] = "zero"
    Ms, zs, M_true, z_true = _lse_problem(M, kinds, seed)
    payloads = np.concatenate([Ms.reshape(len(kinds), M * M), zs], axis=1)
    starts = []
    for s, eb in lse_error_bound_blocks(payloads, M_true, z_true):
        starts.append(s)
        for j in range(len(eb.m)):
            _assert_matches_reference(eb, j, Ms[s + j], zs[s + j], M_true, z_true)
    assert starts == [0, _CHUNK_ROWS]


def test_error_bounds_with_a_singular_true_gram_apply_to_no_item():
    # ||M_i - M_true|| >= 1 / ||M_i^-1|| whenever M_true is singular, so
    # m * dM >= 1 for every invertible M_i and theta_hat is never needed
    rng = np.random.default_rng(4)
    Ms = np.stack([np.eye(2), [[2.0, 1.0], [1.0, 2.0]], *(rng.normal(size=(3, 2, 2)))])
    zs = rng.normal(size=(len(Ms), 2))
    eb = lse_error_bounds(Ms, zs, np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones(2))
    assert not eb.applicable.any() and not eb.holds.any() and not eb.singular.any()


def test_error_bound_keeps_its_singular_error_and_rejects_bad_shapes():
    with pytest.raises(np.linalg.LinAlgError):
        lse_error_bound(np.zeros((2, 2)), np.ones(2), np.eye(2), np.ones(2))
    with pytest.raises(ValueError, match="need"):
        lse_error_bounds(np.zeros((3, 2, 2)), np.ones((3, 3)), np.eye(2), np.ones(2))
    with pytest.raises(ValueError, match="need"):
        lse_error_bounds(np.zeros((3, 2, 2)), np.ones((3, 2)), np.eye(3), np.ones(3))


def test_payloads_use_scalar_powers():
    # a vectorized x ** m rounds differently on some hosts; the payload
    # entries are those of one scalar power per sample and basis element
    basis = polynomial_basis(5)
    rng = np.random.default_rng(9)
    xs = rng.uniform(-3, 3, 300)
    ys = rng.normal(size=300)
    x0 = lse_payload_states(xs, ys, basis).x
    for j, (x, y) in enumerate(zip(xs, ys)):
        g = np.array([x ** m for m in range(6)])
        assert x0[j].tobytes() == np.concatenate([np.outer(g, g).ravel(), g * y]).tobytes()


def test_operator_norm_examples():
    assert operator_norm(np.diag([3.0, -7.0, 2.0])) == pytest.approx(7.0, abs=1e-9)
    th = 0.3
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert operator_norm(rot) == pytest.approx(1.0, abs=1e-9)
    assert operator_norm(np.zeros((3, 3))) == 0.0
    # the top two singular values nearly tie
    assert operator_norm(np.diag([1.0, 1.0 - 1e-9, 0.5])) == pytest.approx(1.0, rel=1e-15)
    rng = np.random.default_rng(5)
    for _ in range(5):
        A = rng.normal(size=(4, 4))
        assert operator_norm(A) == pytest.approx(np.linalg.norm(A, 2), abs=1e-8)
        # small norms are as exact as large ones
        for s in (1e-4, 1e-8):
            assert operator_norm(s * A) == pytest.approx(s * np.linalg.norm(A, 2), rel=1e-12)
    # a stack gives each matrix's own norm, bit for bit
    stack = rng.normal(size=(2, 3, 4, 5)) * 10.0 ** rng.uniform(-8, 3, (2, 3, 1, 1))
    norms = operator_norm(stack)
    assert norms.shape == (2, 3)
    assert [float(v) for v in norms.ravel()] == [operator_norm(A) for A in stack.reshape(6, 4, 5)]
    for empty in (np.zeros((0, 0)), np.zeros(3), np.zeros((2, 0, 3))):
        with pytest.raises(ValueError):
            operator_norm(empty)


def test_funccalc_init_average_is_u():
    u = np.array([0.2, -1.0, 3.5])
    st = funccalc_init(u)
    assert st.x.shape == (3, 3)
    assert np.allclose(st.x.mean(axis=0), u)
    assert np.array_equal(np.diag(st.x), 3 * u)
    assert st.x.sum() == pytest.approx(u.sum() * 3)


def test_funccalc_consensus_reaches_u():
    u = np.array([1.0, 2.0, 0.5, -0.25, 4.0])
    g = generate_digraph(5, "erdos_renyi", seed=10, edge_prob=0.5)
    W = make_weights(g, "column")
    tr = run_consensus(W, funccalc_init(u).x, 300)
    assert np.abs(tr.states[-1] - u).max() < 1e-10


def test_registered_functions_and_holder():
    f, C, a = registered_function("max", 4)
    assert f(np.array([1.0, 5.0, 2.0, 0.0])) == 5.0
    assert (C, a) == (1.0, 1.0)
    fm, Cm, _ = registered_function("mean", 4)
    assert Cm == pytest.approx(0.5)
    fs, Cs, _ = registered_function("sum", 4)
    assert Cs == pytest.approx(2.0)
    with pytest.raises(ValueError):
        registered_function("median", 4)

    rng = np.random.default_rng(6)
    u = rng.normal(size=4)
    for name in ("max", "mean", "sum"):
        f, C, a = registered_function(name, 4)
        for _ in range(50):
            r = u + rng.normal(size=4) * 0.3
            lhs, rhs, ok = funccalc_error(f, C, a, r, u)
            assert ok and lhs <= rhs + 1e-12


def test_funccalc_error_validation():
    f, C, a = registered_function("max", 3)
    with pytest.raises(ValueError):
        funccalc_error(f, -1.0, 1.0, np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        funccalc_error(f, 1.0, 1.5, np.zeros(3), np.zeros(3))
