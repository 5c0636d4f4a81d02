"""Training math: loss, gradients, the local update rule, aggregation."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedbft.data import Dataset, split_dataset, two_class_gaussian
from fedbft.domain import LocalUpdateTx, SystemParams
from fedbft.fl import (GlobalModel, accuracy, aggregate_global,
                       average_gradient, global_full_gradient, mean_loss,
                       pooled_mean_loss, sigmoid, svrg_local_cycle,
                       verify_update)
from fedbft.sim import RandomStreams, run_training

weight_vecs = arrays(np.float64, 3, elements=st.floats(-50.0, 50.0))


def tx_of(w, g=None, n=1, eid=0, at=0.0):
    w = np.asarray(w, dtype=np.float64)
    g = np.zeros_like(w) if g is None else np.asarray(g, dtype=np.float64)
    return LocalUpdateTx(eid, w, g, n, at)


# --- loss and gradient ---

def one_row(x, y):
    """A one-sample dataset, whose mean loss and gradient are the sample's."""
    return Dataset(np.array([x], dtype=np.float64), np.array([y]))


def sample_loss(w, x, y):
    """Reference per-sample loss log(1 + exp(y * w.x))."""
    return float(np.logaddexp(0.0, y * float(np.dot(w, x))))


def sample_gradient(w, x, y):
    """Reference per-sample gradient y * x * sigmoid(y * w.x)."""
    return y * x * sigmoid(y * float(np.dot(w, x)))


def test_loss_pinned():
    # w.x = 2, y = -1: log(1 + exp(-2))
    got = mean_loss(np.array([1.0, 0.0]), one_row([2.0, 0.0], -1))
    assert got == pytest.approx(math.log(1.0 + math.exp(-2.0)), rel=1e-12)
    assert got == pytest.approx(0.1269280110429725, rel=1e-12)


def test_loss_at_zero_margin_is_log2():
    got = mean_loss(np.array([1.0, 1.0]), one_row([1.0, -1.0], 1))
    assert got == pytest.approx(math.log(2.0))


def test_loss_survives_huge_margins():
    s_pos = one_row([1.0], 1)
    s_neg = one_row([1.0], -1)
    w = np.array([1000.0])
    assert mean_loss(w, s_pos) == pytest.approx(1000.0)
    assert mean_loss(w, s_neg) == pytest.approx(0.0, abs=1e-12)
    assert np.isfinite(average_gradient(w, s_pos)).all()
    assert np.isfinite(average_gradient(w, s_neg)).all()


def test_sigmoid_extremes():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == pytest.approx(0.0, abs=1e-300)
    z = np.array([-5.0, 0.0, 5.0])
    np.testing.assert_allclose(sigmoid(z) + sigmoid(-z), 1.0, rtol=1e-12)


def test_gradient_matches_finite_differences():
    # central differences on 100 random (w, x, y) draws
    rng = np.random.default_rng(1234)
    eps = 1e-6
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        w = rng.normal(size=dim)
        s = one_row(rng.normal(size=dim), 1 if rng.random() < 0.5 else -1)
        grad = average_gradient(w, s)
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = eps
            fd = (mean_loss(w + e, s) - mean_loss(w - e, s)) / (2 * eps)
            assert abs(fd - grad[j]) <= 1e-5 * max(1.0, abs(grad[j]))


def test_gradient_at_zero_weights_is_half_y_x():
    np.testing.assert_allclose(
        average_gradient(np.zeros(2), one_row([2.0, -4.0], -1)), [-1.0, 2.0],
        rtol=1e-15)


def test_gradient_vanishes_at_large_negative_margin():
    np.testing.assert_allclose(
        average_gradient(np.array([1000.0]), one_row([1.0], -1)), [0.0],
        atol=1e-300)


def test_average_gradient_of_mirrored_samples_cancels():
    # same label, opposite features, w=0: gradients negate each other
    ds = Dataset(np.array([[1.0, 2.0], [-1.0, -2.0]]), np.array([1, 1]))
    np.testing.assert_array_equal(average_gradient(np.zeros(2), ds), [0.0, 0.0])


def test_average_gradient_single_sample():
    w = np.array([0.3, 0.7])
    ds = Dataset(np.array([[1.5, -0.5]]), np.array([-1]))
    np.testing.assert_allclose(average_gradient(w, ds),
                               sample_gradient(w, ds.x[0], -1),
                               rtol=1e-15)


def test_average_gradient_is_mean_of_sample_gradients():
    # the smallest shape, and the fl-adversary benchmark's training set
    rng = np.random.default_rng(7)
    for n, dim in [(20, 3), (400, 300)]:
        ds = two_class_gaussian(n, dim, 2.0, rng)
        w = rng.normal(size=dim)
        per_sample = np.stack([sample_gradient(w, x, y)
                               for x, y in zip(ds.x, ds.y)])
        np.testing.assert_allclose(average_gradient(w, ds),
                                   per_sample.mean(axis=0), rtol=1e-12)


def test_mean_loss_matches_sample_loop():
    rng = np.random.default_rng(8)
    ds = two_class_gaussian(15, 2, 1.0, rng)
    w = rng.normal(size=2)
    looped = np.mean([sample_loss(w, x, y) for x, y in zip(ds.x, ds.y)])
    assert mean_loss(w, ds) == pytest.approx(looped, rel=1e-12)


def test_pooled_loss_weights_by_sample_count():
    rng = np.random.default_rng(9)
    a = two_class_gaussian(10, 2, 1.0, rng)
    b = two_class_gaussian(30, 2, 1.0, rng)
    w = rng.normal(size=2)
    expected = (10 * mean_loss(w, a) + 30 * mean_loss(w, b)) / 40
    assert pooled_mean_loss(w, [a, b]) == pytest.approx(expected, rel=1e-12)


# --- the local update rule ---

def one_sample_problem():
    ds = Dataset(np.array([[1.0]]), np.array([1]))
    return ds, SystemParams(beta=1.0, epsilon=1e-3)


def test_local_cycle_single_step_trace():
    # anchor w=0, anchor gradient 0.5: the first step is exactly
    # -(sigmoid(0) - sigmoid(0) + 0.5) = -0.5
    ds, p = one_sample_problem()
    model = GlobalModel(np.zeros(1), np.array([0.5]))
    tx = svrg_local_cycle(model, ds, SystemParams(beta=1.0, t_max=1),
                          np.random.default_rng(0))
    np.testing.assert_allclose(tx.weights, [-0.5], rtol=1e-15)


def test_local_cycle_two_step_trace():
    # step 2 continues from -0.5: the correction term cancels the anchor
    # gradient and the move is -sigmoid(-0.5)
    ds, _ = one_sample_problem()
    model = GlobalModel(np.zeros(1), np.array([0.5]))
    tx = svrg_local_cycle(model, ds, SystemParams(beta=1.0, t_max=2),
                          np.random.default_rng(0))
    expected = -0.5 - 1.0 / (1.0 + math.exp(0.5))
    np.testing.assert_allclose(tx.weights, [expected], rtol=1e-12)
    # the shared gradient is this dataset's mean gradient at the result
    np.testing.assert_allclose(tx.shared_gradient,
                               average_gradient(tx.weights, ds), rtol=1e-15)


@pytest.mark.parametrize("n", [1, 7, 400, 2**33])
def test_block_index_draw_equals_scalar_draws(n):
    # svrg_local_cycle draws its t_max step indices as one block
    block_rng = np.random.default_rng(21)
    scalar_rng = np.random.default_rng(21)
    block = block_rng.integers(n, size=500)
    scalar = [int(scalar_rng.integers(n)) for _ in range(500)]
    assert block.tolist() == scalar
    assert block_rng.bit_generator.state == scalar_rng.bit_generator.state


def reference_local_weights(model, ds, p, rng):
    """The step loop as first written: scalar draws, array sigmoid, an
    (N, dim) matrix of anchor terms, and an out-of-place update."""
    anchor_w = np.asarray(model.weights, dtype=np.float64)
    anchor_grad = (average_gradient(anchor_w, ds) if model.full_gradient is None
                   else np.asarray(model.full_gradient, dtype=np.float64))
    signed_x = ds.x * ds.y[:, None]
    anchor_terms = signed_x * sigmoid(ds.y * (ds.x @ anchor_w))[:, None]
    step = p.beta / len(ds)
    w = anchor_w.copy()
    for _ in range(p.t_max):
        k = int(rng.integers(len(ds)))
        g_now = signed_x[k] * sigmoid(np.asarray(float(signed_x[k] @ w)))
        w -= step * (g_now - anchor_terms[k] + anchor_grad)
    return w


@pytest.mark.parametrize("dim,anchored", [(2, False), (2, True), (300, True)])
def test_local_cycle_matches_reference_loop(dim, anchored):
    # the lazy step regroups the same arithmetic, so only rounding differs;
    # the indices drawn and the final rng state are the reference's
    rng = np.random.default_rng(dim)
    ds = two_class_gaussian(80, dim, 3.0, rng)
    model = (GlobalModel(rng.normal(size=dim), rng.normal(size=dim) * 0.1)
             if anchored else GlobalModel.initial(dim))
    p = SystemParams(beta=2.0, t_max=300)
    fast_rng = np.random.default_rng(5)
    ref_rng = np.random.default_rng(5)
    w = svrg_local_cycle(model, ds, p, fast_rng).weights
    ref = reference_local_weights(model, ds, p, ref_rng)
    assert np.linalg.norm(w - ref) <= 1e-12 * np.linalg.norm(ref)
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


def assert_matches_reference(model, ds, p):
    fast_rng = np.random.default_rng(5)
    ref_rng = np.random.default_rng(5)
    w = svrg_local_cycle(model, ds, p, fast_rng).weights
    ref = reference_local_weights(model, ds, p, ref_rng)
    assert np.linalg.norm(w - ref) <= 1e-12 * np.linalg.norm(ref)
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("t_max", [1, 15, 16, 17, 255, 256, 257, 600])
@pytest.mark.parametrize("dim", [2, 300])
def test_local_cycle_matches_reference_at_block_and_chunk_edges(dim, t_max):
    # the pass runs blocks of 16 steps inside chunks of 256 draws; a first,
    # partial, full or spilling block or chunk must all step as the loop
    rng = np.random.default_rng(100 + dim)
    ds = two_class_gaussian(80, dim, 3.0, rng)
    model = GlobalModel(rng.normal(size=dim), rng.normal(size=dim) * 0.1)
    assert_matches_reference(model, ds, SystemParams(beta=2.0, t_max=t_max))


def test_local_cycle_matches_reference_when_rows_repeat_in_a_block():
    # two rows and 64 steps: every block draws each row many times, so the
    # Gram corrections use its diagonal and repeated off-diagonal entries
    rng = np.random.default_rng(31)
    ds = Dataset(rng.normal(size=(2, 3)), np.array([1, -1]))
    model = GlobalModel(rng.normal(size=3), rng.normal(size=3) * 0.1)
    assert_matches_reference(model, ds, SystemParams(beta=0.5, t_max=64))


def test_local_cycle_fixed_point_at_zero_anchor_gradient():
    # with a zero anchor gradient the correction terms cancel exactly and
    # the weights never move off the anchor
    rng = np.random.default_rng(3)
    ds = two_class_gaussian(12, 2, 1.0, rng)
    w0 = rng.normal(size=2)
    model = GlobalModel(w0, np.zeros(2))
    tx = svrg_local_cycle(model, ds, SystemParams(beta=0.5, t_max=40), rng)
    np.testing.assert_array_equal(tx.weights, w0)


def test_bootstrap_anchors_on_own_gradient():
    rng = np.random.default_rng(4)
    ds = two_class_gaussian(16, 2, 2.0, rng)
    p = SystemParams(beta=0.5, t_max=25)
    boot = svrg_local_cycle(GlobalModel.initial(2), ds, p,
                            np.random.default_rng(99))
    explicit = GlobalModel(np.zeros(2), average_gradient(np.zeros(2), ds))
    same = svrg_local_cycle(explicit, ds, p, np.random.default_rng(99))
    np.testing.assert_array_equal(boot.weights, same.weights)


def test_local_cycle_zero_beta_never_moves():
    rng = np.random.default_rng(11)
    ds = two_class_gaussian(10, 2, 1.0, rng)
    model = GlobalModel(rng.normal(size=2), rng.normal(size=2))
    tx = svrg_local_cycle(model, ds, SystemParams(beta=0.0, t_max=50), rng)
    np.testing.assert_array_equal(tx.weights, model.weights)


def test_local_cycle_reduces_own_loss():
    rng = np.random.default_rng(5)
    ds = two_class_gaussian(200, 2, 4.0, rng)
    model = GlobalModel.initial(2)
    tx = svrg_local_cycle(model, ds, SystemParams(beta=0.5, t_max=400), rng)
    assert mean_loss(tx.weights, ds) < mean_loss(model.weights, ds)


def test_local_cycle_metadata():
    rng = np.random.default_rng(6)
    ds = two_class_gaussian(10, 2, 1.0, rng, owner=3)
    tx = svrg_local_cycle(GlobalModel.initial(2), ds,
                          SystemParams(t_max=5), rng, created_at=2.5)
    assert tx.enterprise_id == 3
    assert tx.n_samples == 10
    assert tx.created_at == 2.5
    assert tx.digest_ok()


def test_local_cycle_dimension_mismatch():
    ds, p = one_sample_problem()
    with pytest.raises(ValueError, match="dimensions differ"):
        svrg_local_cycle(GlobalModel.initial(2), ds, p, np.random.default_rng(0))


@pytest.mark.parametrize("dim,anchored", [(2, False), (300, True)])
def test_local_cycle_is_invariant_to_flipping_every_sign(dim, anchored):
    # the step folds y_k into scalars; (-y_k)(-x_k) = y_k x_k exactly, so
    # the flipped dataset must give the same bits and the same draws
    rng = np.random.default_rng(40 + dim)
    ds = two_class_gaussian(120, dim, 3.0, rng)
    flipped = Dataset(-ds.x, -ds.y)
    model = (GlobalModel(rng.normal(size=dim), rng.normal(size=dim) * 0.1)
             if anchored else GlobalModel.initial(dim))
    p = SystemParams(beta=2.0, t_max=300)
    rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
    a = svrg_local_cycle(model, ds, p, rng_a)
    b = svrg_local_cycle(model, flipped, p, rng_b)
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.shared_gradient.tobytes() == b.shared_gradient.tobytes()
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_local_cycle_allocates_less_than_one_copy_of_the_rows():
    # the fl-adversary shape: a per-call (N, dim) copy, such as the rows
    # premultiplied by their labels, would alone reach N * dim * 8 bytes
    rng = np.random.default_rng(12)
    ds = two_class_gaussian(400, 300, 3.0, rng)
    model = GlobalModel(rng.normal(size=300) * 0.01, rng.normal(size=300) * 0.01)
    p = SystemParams(beta=2.0, t_max=200)
    svrg_local_cycle(model, ds, p, np.random.default_rng(0))  # warm caches
    tracemalloc.start()
    try:
        svrg_local_cycle(model, ds, p, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ds.x.nbytes


def test_local_cycle_memory_does_not_grow_with_t_max():
    # 5 000 steps at the fl-adversary shape: the indices and gathered rows
    # are held one chunk at a time, so the peak stays below one (N, dim)
    # matrix, as it does at 200 steps
    rng = np.random.default_rng(13)
    ds = two_class_gaussian(400, 300, 3.0, rng)
    model = GlobalModel(rng.normal(size=300) * 0.01, rng.normal(size=300) * 0.01)
    p = SystemParams(beta=2.0, t_max=5000)
    svrg_local_cycle(model, ds, p, np.random.default_rng(0))  # warm caches
    tracemalloc.start()
    try:
        svrg_local_cycle(model, ds, p, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ds.x.nbytes


# --- aggregation ---

def test_aggregate_single_tx_returns_its_weights():
    w_prev = np.array([1.0, -1.0])
    tx = tx_of([3.0, 4.0], n=17)
    np.testing.assert_allclose(aggregate_global(w_prev, [tx]), [3.0, 4.0],
                               rtol=1e-15)


def test_aggregate_weighted_mean():
    # shares 1/4 and 3/4 around w_prev = 0
    txs = [tx_of([4.0], n=1), tx_of([0.0], n=3)]
    np.testing.assert_allclose(aggregate_global(np.zeros(1), txs), [1.0],
                               rtol=1e-15)


@given(st.lists(st.tuples(weight_vecs, st.integers(1, 50)), min_size=1,
                max_size=6), weight_vecs, st.randoms(use_true_random=False))
@settings(max_examples=50)
def test_aggregate_permutation_invariant(parts, w_prev, rnd):
    txs = [tx_of(w, n=n, eid=i) for i, (w, n) in enumerate(parts)]
    shuffled = list(txs)
    rnd.shuffle(shuffled)
    np.testing.assert_allclose(aggregate_global(w_prev, txs),
                               aggregate_global(w_prev, shuffled), rtol=1e-12,
                               atol=1e-12)


@given(st.lists(st.tuples(weight_vecs, st.integers(1, 50)), min_size=1,
                max_size=6), weight_vecs)
@settings(max_examples=50)
def test_aggregate_is_convex_combination(parts, w_prev):
    txs = [tx_of(w, n=n, eid=i) for i, (w, n) in enumerate(parts)]
    total = sum(n for _, n in parts)
    expected = w_prev + sum((n / total) * (np.asarray(w) - w_prev)
                            for w, n in parts)
    np.testing.assert_allclose(aggregate_global(w_prev, txs), expected,
                               rtol=1e-12, atol=1e-12)


def test_global_full_gradient_weighted_mean():
    txs = [tx_of([0.0], g=[1.0], n=1), tx_of([0.0], g=[5.0], n=3)]
    np.testing.assert_allclose(global_full_gradient(txs), [4.0], rtol=1e-15)


def test_global_full_gradient_hand_checks():
    # one tx passes through; equal shares of g and -g cancel; 1:3 split
    one = [tx_of([0.0], g=[4.0], n=1)]
    np.testing.assert_allclose(global_full_gradient(one), [4.0], rtol=1e-15)
    mirrored = [tx_of([0.0], g=[2.5], n=7, eid=0),
                tx_of([0.0], g=[-2.5], n=7, eid=1)]
    np.testing.assert_array_equal(global_full_gradient(mirrored), [0.0])
    split = [tx_of([0.0], g=[4.0], n=1, eid=0), tx_of([0.0], g=[0.0], n=3, eid=1)]
    np.testing.assert_allclose(global_full_gradient(split), [1.0], rtol=1e-15)


def test_aggregate_fixed_point_and_equal_shares():
    w_prev = np.array([0.25, -1.5])
    stay = [tx_of(w_prev, n=4, eid=0), tx_of(w_prev, n=9, eid=1)]
    np.testing.assert_array_equal(aggregate_global(w_prev, stay), w_prev)
    halves = [tx_of([1.0, 0.0], n=5, eid=0), tx_of([0.0, 1.0], n=5, eid=1)]
    np.testing.assert_allclose(aggregate_global(np.zeros(2), halves),
                               [0.5, 0.5], rtol=1e-15)


def test_aggregate_rejects_empty_and_mismatched():
    with pytest.raises(ValueError, match="at least one tx"):
        aggregate_global(np.zeros(2), [])
    with pytest.raises(ValueError, match="dimensions differ"):
        aggregate_global(np.zeros(2), [tx_of([1.0])])


# --- prediction and verification ---

def classify(w: np.ndarray, x: np.ndarray) -> int:
    """Reference prediction -sign(w.x); the boundary w.x = 0 yields -1."""
    return -1 if float(np.dot(w, x)) >= 0 else 1


def accuracy_on(w, x, y):
    return accuracy(np.asarray(w), Dataset(np.array([x]), np.array([y])))


def test_classify_boundary_is_minus_one():
    # accuracy() predicts -1 on the boundary w.x = 0 and +1 when w.x < 0
    assert accuracy_on(np.zeros(2), [1.0, 1.0], -1) == 1.0
    assert accuracy_on([1.0, 0.0], [2.0, 0.0], -1) == 1.0
    assert accuracy_on([1.0, 0.0], [-2.0, 0.0], 1) == 1.0


# Scaling w by a power of two commutes exactly with every rounding in the
# float64 dot product as long as nothing underflows, so the sign of w.x (and
# the prediction) must not change.  Other scales, or entries so small that
# w_i * x_i underflows (w = 0.5, x = -5e-324 gives w.x = -0.0), can move a
# margin onto the boundary through rounding alone.
clear_of_underflow = arrays(np.float64, 3, elements=st.one_of(
    st.just(0.0), st.floats(1e-6, 50.0), st.floats(-50.0, -1e-6)))


@given(clear_of_underflow, clear_of_underflow, st.integers(-4, 7))
def test_classify_scale_invariant(w, x, k):
    scale = 2.0 ** k
    assert accuracy_on(w, x, 1) == accuracy_on(scale * w, x, 1)


def test_accuracy_matches_classify_loop():
    rng = np.random.default_rng(10)
    ds = two_class_gaussian(40, 3, 2.0, rng)
    w = rng.normal(size=3)
    looped = np.mean([classify(w, x) == y for x, y in zip(ds.x, ds.y)])
    assert accuracy(w, ds) == pytest.approx(looped)


def test_accuracy_counting():
    # with w=0 every prediction is -1, so accuracy = share of -1 labels;
    # w=[-1] gets 9 of these 10 rows right
    ds = Dataset(np.array([[1.0]] * 5 + [[-1.0]] * 5),
                 np.array([1] * 5 + [-1] * 4 + [1]))
    assert accuracy(np.zeros(1), ds) == pytest.approx(0.4)
    assert accuracy(np.array([-1.0]), ds) == pytest.approx(0.9)
    perfect = Dataset(ds.x[:9], ds.y[:9])
    assert accuracy(np.array([-1.0]), perfect) == 1.0


def test_verify_accepts_aligned_update():
    # all four rows classified correctly by w = (-1, 0)
    test = Dataset(np.array([[1.0, 0.0], [2.0, 1.0], [-1.0, 0.5], [-3.0, 0.0]]),
                   np.array([1, 1, -1, -1]))
    tx = tx_of([-1.0, 0.0], g=[0.0, 0.0])
    res = verify_update(tx, test, e0=1.0)
    assert res.accepted and res.accuracy == 1.0


def test_verify_threshold_is_inclusive():
    # w = (-1, 0) gets exactly one of the two rows right
    test = Dataset(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1, -1]))
    tx = tx_of([-1.0, 0.0], g=[0.0, 0.0])
    assert verify_update(tx, test, e0=0.5).accepted
    assert not verify_update(tx, test, e0=0.51).accepted


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=40)
def test_verify_monotone_in_threshold(a, b):
    # accepted at a threshold means accepted at every lower threshold
    lo, hi = sorted((a, b))
    test = Dataset(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1, -1]))
    tx = tx_of([-1.0, 0.0], g=[0.0, 0.0])
    if verify_update(tx, test, e0=hi).accepted:
        assert verify_update(tx, test, e0=lo).accepted


def test_verify_rejects_tampered_digest():
    test = Dataset(np.array([[1.0, 0.0]]), np.array([1]))
    tx = tx_of([-1.0, 0.0], g=[0.0, 0.0])
    bad = LocalUpdateTx(tx.enterprise_id, tx.weights, tx.shared_gradient,
                        tx.n_samples, tx.created_at, "0" * 64)
    res = verify_update(bad, test, e0=0.0)
    assert not res.accepted
    assert res.accuracy == 1.0  # the model itself was fine


# --- the stop rule ---

def test_training_stops_once_the_move_is_at_most_epsilon():
    # inclusive: an epsilon equal to cycle 1's weight move stops training
    # after cycle 1, and the next float below it does not
    def train(epsilon):
        streams = RandomStreams.from_seed(3)
        ents = [split_dataset(two_class_gaussian(40, 2, 4.0, streams.data,
                                                 owner=i)) for i in range(3)]
        holdout = two_class_gaussian(60, 2, 4.0, streams.data)
        return run_training(SystemParams(t_max=30, epsilon=epsilon), ents,
                            holdout, streams, cycle_cap=2)

    delta = train(math.inf).rows[0][1]
    run = train(delta)
    assert (len(run.rows), run.result) == (1, "converged")
    run = train(float(np.nextafter(delta, 0)))
    assert len(run.rows) == 2 and run.rows[0][1] == delta


# --- the model record ---

def test_initial_model():
    m = GlobalModel.initial(3)
    np.testing.assert_array_equal(m.weights, np.zeros(3))
    assert m.full_gradient is None


def test_model_rejects_mismatched_gradient():
    with pytest.raises(ValueError, match="dimension mismatch"):
        GlobalModel(np.zeros(2), np.zeros(3))


def test_model_rejects_non_finite():
    with pytest.raises(ValueError, match="weights must be finite"):
        GlobalModel(np.array([np.inf]), None)
