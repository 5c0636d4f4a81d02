"""Closed-form latency model for one training cycle.

A cycle spends time in local computation, two radio links, a leader that
batches verified transactions (an M/M/1 queue), two broadcast voting
phases, and global aggregation.  Every function returns seconds.

The consensus total has two algebraically equal writings: the sum of the
three phase delays (``t_preprepare`` plus twice ``t_prepare_phase``), and
a single rational closed form.  The tests hold them equal; the closed form
is also what the optimal-rate expression is derived from.
"""
from __future__ import annotations

import math

import numpy as np

from .domain import LatencyBreakdown, SystemParams

__all__ = [
    "t_local_update",
    "t_global_update",
    "t_upload",
    "t_download",
    "t_preprepare",
    "t_prepare_phase",
    "consensus_closed_form",
    "t_total",
    "optimal_lambda",
    "argmin_consensus_grid",
]

# Channel capacities below this are treated as a divergent link.
_CAPACITY_FLOOR = 1e-12

# Largest lambda grid argmin_consensus_grid builds (a few 8-MB arrays).
MAX_GRID_POINTS = 1_000_000


def _require_positive(**named: float) -> None:
    for name, value in named.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive")


def _require_rates(lam: float, mu: float) -> None:
    _require_positive(lam=lam, mu=mu)
    if not lam < mu:
        raise ValueError("lambda must be < mu")


def _require_batch(b) -> None:
    """b, a count or an array of them, must be >= 1 throughout."""
    if not np.asarray(b >= 1).all():
        raise ValueError("b must be >= 1")


def t_local_update(delta_d: float, n_i: int, f_c: float) -> float:
    """Local training time: delta_d cycles per sample over n_i samples at f_c."""
    _require_positive(delta_d=delta_d, f_c=f_c)
    if n_i < 1:
        raise ValueError("n_i must be >= 1")
    return delta_d * n_i / f_c

def t_global_update(delta_m: float, n_block: int, f_c: float) -> float:
    """Aggregation time over a full block of n_block model updates."""
    _require_positive(delta_m=delta_m, f_c=f_c)
    if n_block < 1:
        raise ValueError("n_block must be >= 1")
    return delta_m * n_block / f_c


def _capacity(bandwidth: float, gamma: float) -> float:
    cap = bandwidth * math.log2(1.0 + gamma)
    if cap < _CAPACITY_FLOOR:
        raise ValueError("channel capacity below floor")
    return cap


def t_upload(delta_m: float, w_up: float, gamma_up: float) -> float:
    """Time to push one model update of delta_m bits up the enterprise link."""
    _require_positive(delta_m=delta_m, w_up=w_up, gamma_up=gamma_up)
    return delta_m / _capacity(w_up, gamma_up)

def t_download(h: float, b: int, delta_m: float, w_dn: float, gamma_dn: float) -> float:
    """Time to pull a sealed block (header plus b updates) down the link;
    b may be an array."""
    _require_positive(h=h, delta_m=delta_m, w_dn=w_dn, gamma_dn=gamma_dn)
    _require_batch(b)
    return (h + b * delta_m) / _capacity(w_dn, gamma_dn)


def t_preprepare(b: int, lam: float, mu: float) -> float:
    """Expected batching delay for b transactions.

    The leader's collect-verify-batch pipeline behaves as an M/M/1 queue,
    so each transaction sojourns 1/(mu - lambda) on average and a block
    of b of them costs b/(mu - lambda).  b may be an array.
    """
    _require_rates(lam, mu)
    _require_batch(b)
    return b / (mu - lam)


def t_prepare_phase(f: int, lam: float, mu: float) -> float:
    """Expected prepare (equally, commit) phase delay at one honest peer.

    The peer waits for 2f matching votes arriving with exponential(lambda)
    gaps, then works through 2f+1 messages at exponential(mu) each:
    2f/lambda + (2f+1)/mu.
    """
    _require_rates(lam, mu)
    if f < 0:
        raise ValueError("f must be >= 0")
    return 2 * f / lam + (2 * f + 1) / mu


def _consensus(b, f, lam, mu):
    """The closed form, unchecked; ``lam`` may be an array."""
    return ((b - 4 * f) * lam + 4 * f * mu) / (lam * (mu - lam)) + (4 * f + 2) / mu


def consensus_closed_form(b: int, f: int, lam: float, mu: float) -> float:
    """Single-expression consensus delay, equal to the phase sum."""
    _require_rates(lam, mu)
    _require_batch(b)
    if f < 0:
        raise ValueError("f must be >= 0")
    return _consensus(b, f, lam, mu)


def t_total(p: SystemParams, n_i: int, b: int) -> LatencyBreakdown:
    """Predicted breakdown of a whole cycle for batch size b.

    b may be an array of batch sizes; then ``t_preprepare`` and ``t_dn``,
    the only components that depend on it, are arrays of its shape, and
    the other components stay scalars.
    """
    return LatencyBreakdown(
        t_local=t_local_update(p.delta_d, n_i, p.f_c),
        t_up=t_upload(p.delta_m, p.w_up, p.gamma_up),
        t_preprepare=t_preprepare(b, p.lam, p.mu),
        t_prepare=t_prepare_phase(p.f, p.lam, p.mu),
        t_commit=t_prepare_phase(p.f, p.lam, p.mu),
        t_dn=t_download(p.h, b, p.delta_m, p.w_dn, p.gamma_dn),
        t_global=t_global_update(p.delta_m, p.n_block, p.f_c),
    )


def optimal_lambda(f: int, n_block: int, mu: float) -> float:
    """Arrival rate minimizing the full-block consensus delay.

    Setting the slope to zero and keeping the positive root:
    lambda* = (-8 f mu + 4 mu sqrt(f n_block)) / (2 (n_block - 4 f)).
    Requires f >= 1 and n_block != 4f, and the root must fall inside the
    stable region (0, mu).
    """
    _require_positive(mu=mu)
    if f < 1:
        raise ValueError("f must be >= 1")
    if n_block == 4 * f:
        raise ValueError("degenerate denominator: n_block must differ from 4f")
    lam_star = (-8 * f * mu + 4 * mu * math.sqrt(f * n_block)) / (2 * (n_block - 4 * f))
    if not 0 < lam_star < mu:
        raise ValueError("optimal rate outside stable region (0, mu)")
    return lam_star


def argmin_consensus_grid(f: int, n_block: int, mu: float, grid_step: float) -> float:
    """Grid argmin of the full-block consensus delay over (0, mu).

    Scans lambda = grid_step, 2*grid_step, ..., mu - grid_step, in units
    of mu, and also checks discrete convexity: every second difference
    must be >= -1e-9 s.
    """
    _require_positive(mu=mu, grid_step=grid_step)
    if not mu / grid_step < MAX_GRID_POINTS:  # also catches an infinite ratio
        raise ValueError(f"lambda grid exceeds {MAX_GRID_POINTS} points")
    n_pts = int(round(mu / grid_step)) - 1
    if n_pts < 3:
        raise ValueError("grid_step too coarse for (0, mu)")
    grid = grid_step * np.arange(1, n_pts + 1)
    # mu times the delay, a function of lambda/mu alone, overflows at no mu
    values = _consensus(n_block, f, grid / mu, 1.0)
    if np.diff(values, n=2).min() < -1e-9 * mu:
        raise ValueError("consensus delay not convex along grid")
    return float(grid[int(np.argmin(values))])
