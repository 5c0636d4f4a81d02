"""Training math: loss, gradients, the local update rule, aggregation."""
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedbft import fl
from fedbft.data import Dataset, split_dataset, two_class_gaussian
from fedbft.domain import LocalUpdateTx, SystemParams
from fedbft.fl import (GlobalModel, accuracy, aggregate_global,
                       average_gradient, global_full_gradient, mean_loss,
                       pooled_mean_loss, sigmoid, svrg_local_cycle,
                       verify_update)
from fedbft.latency import t_local_update
from fedbft.sim import RandomStreams, run_cycle, run_training

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
    # one value per row of the weight stack, each that row's weighted mean
    rng = np.random.default_rng(9)
    a = two_class_gaussian(10, 2, 1.0, rng)
    b = two_class_gaussian(30, 2, 1.0, rng)
    W = rng.normal(size=(3, 2))
    expected = [(10 * mean_loss(w, a) + 30 * mean_loss(w, b)) / 40 for w in W]
    got = pooled_mean_loss(W, [a, b])
    assert got.shape == (3,)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_pooled_loss_rejects_what_is_not_a_stack_of_the_sets_width():
    ds = two_class_gaussian(10, 2, 1.0, np.random.default_rng(9))
    for W in (np.zeros(2), np.zeros((1, 4, 2))):
        with pytest.raises(ValueError, match="stack"):
            pooled_mean_loss(W, [ds])
    for width in (1, 3):
        with pytest.raises(ValueError, match="dimensions differ"):
            pooled_mean_loss(np.zeros((4, width)), [ds])


# --- the local update rule ---

def one_sample_problem():
    ds = Dataset(np.array([[1.0]]), np.array([1]))
    return ds, SystemParams(beta=1.0, epsilon=1e-3)


def test_local_cycle_single_step_trace():
    # anchor w=0, anchor gradient 0.5: the first step is exactly
    # -(sigmoid(0) - sigmoid(0) + 0.5) = -0.5
    ds, p = one_sample_problem()
    model = GlobalModel(np.zeros(1), np.array([0.5]))
    w, _ = svrg_local_cycle(model, ds, SystemParams(beta=1.0, t_max=1),
                            np.random.default_rng(0))
    np.testing.assert_allclose(w, [-0.5], rtol=1e-15)


def test_local_cycle_two_step_trace():
    # step 2 continues from -0.5: the correction term cancels the anchor
    # gradient and the move is -sigmoid(-0.5)
    ds, _ = one_sample_problem()
    model = GlobalModel(np.zeros(1), np.array([0.5]))
    w, g = svrg_local_cycle(model, ds, SystemParams(beta=1.0, t_max=2),
                            np.random.default_rng(0))
    expected = -0.5 - 1.0 / (1.0 + math.exp(0.5))
    np.testing.assert_allclose(w, [expected], rtol=1e-12)
    # the shared gradient is this dataset's mean gradient at the result
    np.testing.assert_allclose(g, average_gradient(w, ds), rtol=1e-15)


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
    w, _ = svrg_local_cycle(model, ds, p, fast_rng)
    ref = reference_local_weights(model, ds, p, ref_rng)
    assert np.linalg.norm(w - ref) <= 1e-12 * np.linalg.norm(ref)
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


def assert_matches_reference(model, ds, p):
    fast_rng = np.random.default_rng(5)
    ref_rng = np.random.default_rng(5)
    w, _ = svrg_local_cycle(model, ds, p, fast_rng)
    ref = reference_local_weights(model, ds, p, ref_rng)
    assert np.linalg.norm(w - ref) <= 1e-12 * np.linalg.norm(ref)
    assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("t_max", [1, 15, 16, 17, 63, 64, 65, 255, 256, 257,
                                   600])
@pytest.mark.parametrize("dim", [2, 300, 1000])
def test_local_cycle_matches_reference_at_block_and_chunk_edges(dim, t_max):
    # the pass runs blocks of 16 steps inside chunks of 256 draws, gathered
    # in pieces of 64 rows at dim 1000; a first, partial, full or spilling
    # block, piece or chunk must all step as the loop
    rng = np.random.default_rng(100 + dim)
    ds = two_class_gaussian(80, dim, 3.0, rng)
    model = GlobalModel(rng.normal(size=dim), rng.normal(size=dim) * 0.1)
    assert_matches_reference(model, ds, SystemParams(beta=2.0, t_max=t_max))


PIECES_JOB = """
import numpy as np
from fedbft import fl
from fedbft.data import two_class_gaussian
from fedbft.domain import SystemParams

def local_pass(dim, t_max):
    rng = np.random.default_rng(dim + t_max)
    ds = two_class_gaussian(300, dim, 3.0, rng)
    model = fl.GlobalModel(rng.normal(size=dim) * 0.01,
                           rng.normal(size=dim) * 0.01)
    rng = np.random.default_rng(3)
    w, g = fl.svrg_local_cycle(model, ds, SystemParams(beta=2.0, t_max=t_max),
                               rng)
    return w.tobytes(), g.tobytes(), rng.bit_generator.state

pieces = fl._GATHER
for dim, t_max in ((300, 500), (1000, 300), (5000, 100), (5000, 257)):
    fl._GATHER = pieces
    a = local_pass(dim, t_max)
    fl._GATHER = 1 << 40  # one gather per chunk
    print(dim, t_max, a == local_pass(dim, t_max))
"""


def test_gather_pieces_give_the_bits_of_one_gather():
    # pieces of whole blocks split each chunk's gemvs at multiples of 16
    # rows, which leaves every row's result, and so every step, unchanged
    # on one BLAS thread.  (A threaded OpenBLAS gemv over about 100 rows
    # of 5 000 features splits each row's dot between the threads, so its
    # bits depend on the thread count: README "Determinism".)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(fl.__file__).parents[1]), env.get("PYTHONPATH"))
        if p)
    done = subprocess.run([sys.executable, "-c", PIECES_JOB], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["300", "500", "True", "1000", "300", "True",
                                   "5000", "100", "True", "5000", "257", "True"]


@pytest.mark.parametrize("dim, n, t_max", [(100_000, 5, 64), (2_048, 300, 256)])
def test_local_cycle_gathers_one_bounded_piece_at_a_time(dim, n, t_max):
    # rows are gathered in pieces of whole 16-row blocks of at most 2^16
    # values, one block at least: 16 rows at 100 000 features, not a
    # (64, dim) chunk of 51 MB, and 32 rows at 2 048, not 256 (4 MB)
    rng = np.random.default_rng(14)
    ds = Dataset(rng.standard_normal((n, dim)), rng.choice([-1, 1], size=n))
    model = GlobalModel(np.zeros(dim), rng.normal(size=dim) * 0.01)
    p = SystemParams(beta=0.5, t_max=t_max)
    tracemalloc.start()
    try:
        svrg_local_cycle(model, ds, p, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * max(16 * dim, 1 << 16) * 8


def test_local_cycle_matches_reference_when_rows_repeat_in_a_block():
    # two rows and 64 steps: every block draws each row many times, so the
    # Gram corrections use its diagonal and repeated off-diagonal entries
    rng = np.random.default_rng(31)
    ds = Dataset(rng.normal(size=(2, 3)), np.array([1, -1]))
    model = GlobalModel(rng.normal(size=3), rng.normal(size=3) * 0.1)
    assert_matches_reference(model, ds, SystemParams(beta=0.5, t_max=64))


def test_builtin_sum_adds_floats_one_by_one_from_the_left():
    # the step loop sums its Gram corrections with sum(map(mul, a, g)), so
    # the fl-run rounding contract, and every fl-run golden with it, needs
    # CPython's plain left-to-right float sum(); 3.12 made sum() compensated
    rng = np.random.default_rng(0)
    cases = [[1e16, 1.0, -1e16], [0.1 * 0.3] * 10]
    cases += [rng.standard_normal(16).tolist() for _ in range(100)]
    for values in cases:
        left = 0
        for v in values:
            left += v
        assert sum(values) == left, (
            "sum() of floats is not the left-to-right sum; the fl-run "
            'rounding contract holds on CPython 3.10-3.11 (README "Install")')


def test_local_cycle_fixed_point_at_zero_anchor_gradient():
    # with a zero anchor gradient the correction terms cancel exactly and
    # the weights never move off the anchor
    rng = np.random.default_rng(3)
    ds = two_class_gaussian(12, 2, 1.0, rng)
    w0 = rng.normal(size=2)
    model = GlobalModel(w0, np.zeros(2))
    w, _ = svrg_local_cycle(model, ds, SystemParams(beta=0.5, t_max=40), rng)
    np.testing.assert_array_equal(w, w0)


def test_bootstrap_anchors_on_own_gradient():
    rng = np.random.default_rng(4)
    ds = two_class_gaussian(16, 2, 2.0, rng)
    p = SystemParams(beta=0.5, t_max=25)
    boot, _ = svrg_local_cycle(GlobalModel.initial(2), ds, p,
                               np.random.default_rng(99))
    explicit = GlobalModel(np.zeros(2), average_gradient(np.zeros(2), ds))
    same, _ = svrg_local_cycle(explicit, ds, p, np.random.default_rng(99))
    np.testing.assert_array_equal(boot, same)


def test_local_cycle_zero_beta_never_moves():
    rng = np.random.default_rng(11)
    ds = two_class_gaussian(10, 2, 1.0, rng)
    model = GlobalModel(rng.normal(size=2), rng.normal(size=2))
    w, _ = svrg_local_cycle(model, ds, SystemParams(beta=0.0, t_max=50), rng)
    np.testing.assert_array_equal(w, model.weights)


def test_local_cycle_reduces_own_loss():
    rng = np.random.default_rng(5)
    ds = two_class_gaussian(200, 2, 4.0, rng)
    model = GlobalModel.initial(2)
    w, _ = svrg_local_cycle(model, ds, SystemParams(beta=0.5, t_max=400), rng)
    assert mean_loss(w, ds) < mean_loss(model.weights, ds)


def test_run_cycle_signs_each_update_as_its_list_position():
    # no id is passed anywhere: enterprise i is the i-th set, for honest
    # and adversarial updates alike, whatever order the sets come in
    rng = np.random.default_rng(6)
    sizes = (30, 10, 50, 20)
    ents = [split_dataset(two_class_gaussian(n, 2, 4.0, rng)) for n in sizes]
    p = SystemParams(t_max=5, e0=0.0)
    _, _, block = run_cycle(p, ents, GlobalModel.initial(2),
                            RandomStreams.from_seed(1), adversaries=[1])
    assert sorted(tx.enterprise_id for tx in block.txs) == [0, 1, 2, 3]
    for tx in block.txs:
        n = len(ents[tx.enterprise_id].train)
        assert tx.n_samples == n
        assert tx.created_at == t_local_update(p.delta_d, n, p.f_c)
        assert tx.digest_ok()


def test_local_cycle_dimension_mismatch():
    ds, p = one_sample_problem()
    with pytest.raises(ValueError, match="dimensions differ"):
        svrg_local_cycle(GlobalModel.initial(2), ds, p, np.random.default_rng(0))


@pytest.mark.parametrize("width", [1, 3])
def test_local_cycle_rejects_an_anchored_model_of_another_width(width):
    # an anchored model skips the bootstrap gradient, whose own check
    # would otherwise report a mismatch first
    ds = two_class_gaussian(10, 2, 1.0, np.random.default_rng(0))
    model = GlobalModel(np.zeros(width), np.zeros(width))
    with pytest.raises(ValueError, match="model and dataset dimensions differ"):
        svrg_local_cycle(model, ds, SystemParams(t_max=5),
                         np.random.default_rng(0))


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
    wa, ga = svrg_local_cycle(model, ds, p, rng_a)
    wb, gb = svrg_local_cycle(model, flipped, p, rng_b)
    assert wa.tobytes() == wb.tobytes()
    assert ga.tobytes() == gb.tobytes()
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


def test_stacked_accuracy_is_each_rows_accuracy():
    # a zero row puts every margin on the tie, which predicts -1, and a
    # NaN row predicts +1 everywhere, in the stack as for one vector
    rng = np.random.default_rng(11)
    ds = Dataset(rng.standard_normal((50, 3)), np.repeat([-1, 1], [15, 35]))
    W = np.array([rng.standard_normal(3), np.zeros(3), np.full(3, np.nan),
                  -rng.standard_normal(3)])
    got = accuracy(W, ds)
    assert got.tolist() == [accuracy(w, ds) for w in W]
    assert got[1] == 0.3 and got[2] == 0.7
    for bad in (np.zeros((2, 4)), np.zeros((1, 2, 3)), np.zeros(())):
        with pytest.raises(ValueError, match="dimensions differ"):
            accuracy(bad, ds)


def test_accuracy_counting():
    # with w=0 every prediction is -1, so accuracy = share of -1 labels;
    # w=[-1] gets 9 of these 10 rows right
    ds = Dataset(np.array([[1.0]] * 5 + [[-1.0]] * 5),
                 np.array([1] * 5 + [-1] * 4 + [1]))
    assert accuracy(np.zeros(1), ds) == pytest.approx(0.4)
    assert accuracy(np.array([-1.0]), ds) == pytest.approx(0.9)
    perfect = Dataset(ds.x[:9], ds.y[:9])
    assert accuracy(np.array([-1.0]), perfect) == 1.0


def bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


@pytest.mark.parametrize("n", [1, 7, 2000])
@pytest.mark.parametrize("dim", [1, 2, 300])
def test_kernels_match_the_formulas_they_replace_bit_for_bit(dim, n):
    # accuracy, mean_loss and sigmoid count, sum and divide their own way;
    # each must give the same float64 bits as the plain array formula
    rng = np.random.default_rng(100 * dim + n)
    ds = Dataset(rng.standard_normal((n, dim)), rng.choice([-1, 1], size=n))
    # w = 0 puts every margin on the tie, which predicts -1; a NaN margin
    # predicts +1
    for w in (rng.standard_normal(dim), np.zeros(dim), np.full(dim, np.nan)):
        old = (np.where(ds.x @ w >= 0, -1, 1) == ds.y).mean()
        assert bits(accuracy(w, ds)) == bits(old)
    for w in (rng.standard_normal(dim), np.zeros(dim)):
        old = np.logaddexp(0, ds.y * (ds.x @ w)).mean()
        assert bits(mean_loss(w, ds)) == bits(old)
    edges = [0.0, 1e-300, 1.0, 36.0, 745.0, np.inf]
    z = np.concatenate([edges, np.negative(edges), [np.nan],
                        40.0 * rng.standard_normal(n)])
    t = np.exp(-np.abs(z))
    old = np.where(z >= 0, 1.0 / (1.0 + t), t / (1.0 + t))
    assert sigmoid(z).tobytes() == old.tobytes()
    for v in z:
        assert bits(sigmoid(v)) == bits(sigmoid(np.array([v]))[0])


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
        ents = [split_dataset(two_class_gaussian(40, 2, 4.0, streams.data))
                for _ in range(3)]
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
