"""Closed-form delay model: pinned values, identities, the optimal rate."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedbft import latency
from fedbft.domain import ALL_FIELDS, SystemParams

# Each pinned value below was computed by hand from the defining formula
# before being frozen here (e.g. t_local = 1e4 * 500 / 1e9 = 5e-3 s, and
# t_download = (1e3 + 100 * 1e4) / (1e7 * log2(16)) = 1.001e6 / 4e7 s).

rates = st.tuples(st.floats(1.0, 299.0), st.floats(300.0, 1000.0))


def consensus_slope(lam: float, f: int, n_block: int, mu: float) -> float:
    """d/d lambda of the full-block consensus delay.

    Differentiating b/(mu-lam) + 4f/lam + (4f+2)/mu at b = n_block gives
    ((n_block - 4f) lam^2 + 8 f mu lam - 4 f mu^2) / (lam^2 (mu - lam)^2).
    """
    num = (n_block - 4 * f) * lam ** 2 + 8 * f * mu * lam - 4 * f * mu ** 2
    return num / (lam ** 2 * (mu - lam) ** 2)


def test_local_update_pinned():
    assert latency.t_local_update(1e4, 500, 1e9) == pytest.approx(5e-3, rel=1e-12)


def test_global_update_pinned():
    assert latency.t_global_update(1e4, 100, 1e9) == pytest.approx(1e-3, rel=1e-12)


def test_upload_pinned():
    # capacity = 1e6 * log2(4) = 2e6 bit/s
    assert latency.t_upload(1e4, 1e6, 3.0) == pytest.approx(5e-3, rel=1e-12)


def test_download_pinned():
    assert latency.t_download(1e3, 100, 1e4, 1e7, 15.0) == pytest.approx(
        2.5025e-2, rel=1e-12)


def test_preprepare_pinned():
    assert latency.t_preprepare(100, 100.0, 300.0) == pytest.approx(0.5, rel=1e-12)


def test_prepare_phase_pinned():
    # 2/100 + 3/300 = 0.03 s
    assert latency.t_prepare_phase(1, 100.0, 300.0) == pytest.approx(0.03, rel=1e-12)


@pytest.mark.parametrize("lam,expected", [
    (50.0, 0.5),
    (100.0, 0.56),
    (150.0, 107.0 / 150.0),
    (200.0, 1.04),
    (250.0, 2.036),
])
def test_closed_form_pinned_grid(lam, expected):
    assert latency.consensus_closed_form(100, 1, lam, 300.0) == pytest.approx(
        expected, rel=1e-12)


def test_total_pinned_breakdown():
    bd = latency.t_total(SystemParams(), 500, 100)
    assert bd.t_update == pytest.approx(6e-3, rel=1e-12)
    assert bd.t_commun == pytest.approx(3.0025e-2, rel=1e-12)
    assert bd.t_consensus == pytest.approx(0.56, rel=1e-12)
    assert bd.t_total == pytest.approx(0.596025, rel=1e-12)


@given(rates, st.integers(1, 500), st.integers(0, 8))
def test_closed_form_equals_phase_sum(lm, b, f):
    lam, mu = lm
    phase_sum = (latency.t_preprepare(b, lam, mu)
                 + 2 * latency.t_prepare_phase(f, lam, mu))
    assert latency.consensus_closed_form(b, f, lam, mu) == pytest.approx(
        phase_sum, rel=1e-9)


@given(rates, st.integers(1, 8), st.integers(10, 500))
def test_slope_matches_central_difference(lm, f, n_block):
    lam, mu = lm
    # keep the stencil well away from the pole at lam = mu
    d = 1e-4 * min(lam, mu - lam)
    num = (latency.consensus_closed_form(n_block, f, lam + d, mu)
           - latency.consensus_closed_form(n_block, f, lam - d, mu)) / (2 * d)
    assert consensus_slope(lam, f, n_block, mu) == pytest.approx(
        num, rel=1e-4, abs=1e-6)


def test_optimal_lambda_pinned_exact():
    # (-8*300 + 4*300*sqrt(100)) / (2*96) simplifies to exactly 50
    assert latency.optimal_lambda(1, 100, 300.0) == 50.0


def test_optimal_lambda_zeroes_the_slope():
    lam_star = latency.optimal_lambda(2, 150, 400.0)
    assert consensus_slope(lam_star, 2, 150, 400.0) == pytest.approx(
        0.0, abs=1e-9)


@given(st.integers(1, 6), st.integers(30, 400), st.floats(50.0, 900.0))
def test_optimal_lambda_is_interior_minimum(f, n_block, mu):
    if n_block <= 4 * f:
        return
    try:
        lam_star = latency.optimal_lambda(f, n_block, mu)
    except ValueError:
        return
    at = latency.consensus_closed_form(n_block, f, lam_star, mu)
    for off in (-1e-3, 1e-3):
        lam = lam_star * (1 + off)
        if 0 < lam < mu:
            assert latency.consensus_closed_form(n_block, f, lam, mu) >= at


def test_grid_argmin_lands_within_one_step():
    step = 0.3
    argmin = latency.argmin_consensus_grid(1, 100, 300.0, step)
    assert abs(argmin - 50.0) <= step


def test_grid_argmin_convexity_guard():
    # a fine grid over the defaults stays convex
    latency.argmin_consensus_grid(1, 100, 300.0, 0.1)
    # grid step mu/4 scans 3 points, the fewest accepted; mu/3 scans 2
    assert latency.argmin_consensus_grid(1, 100, 300.0, 75.0) in (75.0, 150.0, 225.0)
    with pytest.raises(ValueError, match="too coarse"):
        latency.argmin_consensus_grid(1, 100, 300.0, 100.0)


# Each validation boundary below is held on both sides: the last valid
# value passes and the first invalid one fails.

def test_local_update_takes_one_sample_and_rejects_none():
    assert latency.t_local_update(1e4, 1, 1e9) == 1e4 / 1e9
    with pytest.raises(ValueError, match="n_i must be >= 1"):
        latency.t_local_update(1e4, 0, 1e9)


def test_link_capacity_at_the_floor_is_valid():
    # w * log2(1 + 1) is w exactly, so the capacity is the floor itself
    assert latency.t_upload(1e4, 1e-12, 1.0) == 1e4 / 1e-12
    with pytest.raises(ValueError, match="channel capacity below floor"):
        latency.t_upload(1e4, math.nextafter(1e-12, 0.0), 1.0)


def test_grid_stops_one_point_short_of_the_cap():
    mu = float(latency.MAX_GRID_POINTS)
    with pytest.raises(ValueError, match="lambda grid exceeds"):
        latency.argmin_consensus_grid(1, 100, mu, 1.0)
    argmin = latency.argmin_consensus_grid(1, 100, mu - 1.0, 1.0)
    assert abs(argmin - latency.optimal_lambda(1, 100, mu - 1.0)) <= 1.0


@given(st.integers(1, 400), st.integers(0, 8), rates)
def test_consensus_decreases_with_service_rate(b, f, lm):
    lam, mu = lm
    assert latency.consensus_closed_form(b, f, lam, mu) > \
        latency.consensus_closed_form(b, f, lam, mu * 1.5)


@given(rates, st.integers(1, 399))
def test_preprepare_monotone_in_batch(lm, b):
    lam, mu = lm
    assert latency.t_preprepare(b + 1, lam, mu) > latency.t_preprepare(b, lam, mu)


def test_consensus_blows_up_near_saturation():
    near = latency.consensus_closed_form(100, 1, 299.999, 300.0)
    assert near > latency.consensus_closed_form(100, 1, 250.0, 300.0) * 100


@pytest.mark.parametrize("call,msg", [
    (lambda: latency.t_preprepare(100, 300.0, 300.0), "lambda must be < mu"),
    (lambda: latency.t_preprepare(0, 100.0, 300.0), "b must be >= 1"),
    (lambda: latency.t_prepare_phase(-1, 100.0, 300.0), "f must be >= 0"),
    (lambda: latency.t_local_update(1e4, 0, 1e9), "n_i must be >= 1"),
    (lambda: latency.t_upload(1e4, 0.0, 3.0), "w_up must be positive"),
    (lambda: latency.t_download(1e3, 0, 1e4, 1e7, 15.0), "b must be >= 1"),
    (lambda: latency.optimal_lambda(0, 100, 300.0), "f must be >= 1"),
    (lambda: latency.optimal_lambda(25, 100, 300.0),
     "degenerate denominator: n_block must differ from 4f"),
])
def test_domain_errors(call, msg):
    with pytest.raises(ValueError, match=msg):
        call()


def test_total_over_an_array_of_b_equals_each_scalar_call():
    # one call prices every replication's b: each component and each sum
    # equals the scalar call's, bit for bit, whether the b are counts or
    # floats, and a scalar b, as ``model`` and ``fl-run`` pass, still
    # gives plain floats
    p = SystemParams(tau=0.2)
    bs = np.arange(1, p.n_block + 1)
    scalars = [latency.t_total(p, 500, b) for b in range(1, p.n_block + 1)]
    for array in (bs, bs.astype(float)):
        model = latency.t_total(p, 500, array)
        for name in ALL_FIELDS:
            expected = [getattr(bd, name) for bd in scalars]
            assert all(type(value) is float for value in expected)
            values = np.broadcast_to(getattr(model, name), bs.shape)
            assert values.tolist() == expected


@pytest.mark.parametrize("call", [
    lambda b: latency.t_preprepare(b, 100.0, 300.0),
    lambda b: latency.t_download(1e3, b, 1e4, 1e7, 15.0),
    lambda b: latency.t_total(SystemParams(), 500, b),
])
def test_an_array_of_b_holding_a_zero_is_one_error(call):
    with pytest.raises(ValueError, match="^b must be >= 1$"):
        call(np.array([3, 1, 0, 7]))


@given(st.integers(1, 20), st.integers(1, 500), st.floats(10.0, 1000.0))
def test_optimal_lambda_always_interior(f, n_block, mu):
    # the root simplifies to mu * 2 sqrt(f) / (sqrt(n_block) + 2 sqrt(f)),
    # which is always strictly inside (0, mu)
    if n_block == 4 * f:
        return
    lam_star = latency.optimal_lambda(f, n_block, mu)
    assert 0.0 < lam_star < mu


@given(st.floats(10.0, 5000.0))
def test_optimal_lambda_simplifies_to_mu_over_six(mu):
    # with f=1 and n_block=100 the root reduces to mu/6 for every mu
    assert latency.optimal_lambda(1, 100, mu) == pytest.approx(mu / 6, rel=1e-12)


def test_forms_agree_over_random_draws():
    # the two printed forms of the consensus delay are the same function
    rng = np.random.default_rng(1234)
    for _ in range(10_000):
        mu = rng.uniform(10.0, 1000.0)
        lam = rng.uniform(1e-3, 0.999) * mu
        b = int(rng.integers(1, 501))
        f = int(rng.integers(0, 11))
        closed = latency.consensus_closed_form(b, f, lam, mu)
        phase_sum = (latency.t_preprepare(b, lam, mu)
                     + 2 * latency.t_prepare_phase(f, lam, mu))
        assert math.isfinite(closed) and closed > 0
        assert closed == pytest.approx(phase_sum, rel=1e-12)


def test_consensus_is_unimodal_in_lambda():
    # decreasing up to the optimum, increasing after, at mu/1000 resolution
    f, n_block, mu = 1, 100, 300.0
    lam_star = latency.optimal_lambda(f, n_block, mu)
    step = mu / 1000.0
    grid = np.arange(step, mu, step)
    vals = np.array([latency.consensus_closed_form(n_block, f, lam, mu)
                     for lam in grid])
    k = int(np.argmin(vals))
    assert abs(grid[k] - lam_star) <= step
    assert np.all(np.diff(vals[:k + 1]) < 0)
    assert np.all(np.diff(vals[k:]) > 0)


def test_slope_matches_central_difference_at_random_points():
    rng = np.random.default_rng(99)
    for _ in range(100):
        mu = rng.uniform(50.0, 800.0)
        lam = rng.uniform(0.05, 0.95) * mu
        f = int(rng.integers(1, 9))
        n_block = int(rng.integers(10, 401))
        h = 1e-6 * min(lam, mu - lam)
        num = (latency.consensus_closed_form(n_block, f, lam + h, mu)
               - latency.consensus_closed_form(n_block, f, lam - h, mu)) / (2 * h)
        assert consensus_slope(lam, f, n_block, mu) == pytest.approx(
            num, rel=1e-6)


def test_consensus_exceeds_minimum_at_ten_percent_offsets():
    lam_star = latency.optimal_lambda(1, 100, 300.0)
    at_min = latency.consensus_closed_form(100, 1, lam_star, 300.0)
    assert latency.consensus_closed_form(100, 1, 0.9 * lam_star, 300.0) > at_min
    assert latency.consensus_closed_form(100, 1, 1.1 * lam_star, 300.0) > at_min


def test_faster_cpu_shrinks_only_the_update_term():
    p = SystemParams()
    fast = latency.t_total(SystemParams(f_c=2e9), 500, 100)
    slow = latency.t_total(p, 500, 100)
    assert fast.t_update < slow.t_update
    assert fast.t_commun == slow.t_commun
    assert fast.t_consensus == slow.t_consensus
    assert fast.t_total < slow.t_total
