"""Local training, verification and aggregation for the federated cycle.

The per-sample objective is log(1 + exp(y * w.x)) with labels in {-1, +1};
its minimizers push y * w.x negative, so prediction is -sign(w.x) with the
tie at w.x = 0 resolved to -1.  Local training runs a variance-reduced
stochastic pass anchored at the last global snapshot, and the global step
mixes enterprise updates weighted by their sample counts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Optional, Sequence

import numpy as np

from .data import Dataset
from .domain import LocalUpdateTx, SystemParams, frozen

__all__ = [
    "GlobalModel",
    "VerifyResult",
    "sigmoid",
    "average_gradient",
    "mean_loss",
    "pooled_mean_loss",
    "global_full_gradient",
    "svrg_local_cycle",
    "aggregate_global",
    "accuracy",
    "verify_update",
]

_CHUNK = 256  # step indices drawn, and rows gathered, at a time
_BLOCK = 16   # steps that share one block-start gemv and one Gram matrix


@dataclass(frozen=True, eq=False)
class GlobalModel:
    """Global weights with the shared anchor gradient.

    full_gradient is None only for the cycle-0 bootstrap model, where each
    enterprise anchors on a gradient of its own data instead.
    """

    weights: np.ndarray
    full_gradient: Optional[np.ndarray]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", frozen(self.weights))
        if not np.isfinite(self.weights).all():
            raise ValueError("weights must be finite")
        if self.full_gradient is not None:
            g = frozen(self.full_gradient)
            object.__setattr__(self, "full_gradient", g)
            if g.shape != self.weights.shape:
                raise ValueError("full_gradient dimension mismatch")
            if not np.isfinite(g).all():
                raise ValueError("full_gradient must be finite")

    @classmethod
    def initial(cls, dim: int) -> "GlobalModel":
        return cls(np.zeros(dim), None)


def sigmoid(z):
    """Numerically safe logistic function."""
    z = np.asarray(z, dtype=np.float64)
    t = np.exp(-np.abs(z))
    # 1 / (1 + t) for z >= 0 and t / (1 + t) below: one numerator, one divide
    return np.where(z >= 0, 1.0, t) / (1.0 + t)


def _margins(w: np.ndarray, ds: Dataset) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (ds.dim,):
        raise ValueError("weight and feature dimensions differ")
    return ds.y * (ds.x @ w)


def average_gradient(w: np.ndarray, ds: Dataset) -> np.ndarray:
    """Mean per-sample gradient over a whole dataset."""
    s = sigmoid(_margins(w, ds))
    return ((ds.y * s) @ ds.x) / len(ds)


def mean_loss(w: np.ndarray, ds: Dataset) -> float:
    # the pairwise sum that ndarray.mean runs, then its one division
    return float(np.add.reduce(np.logaddexp(0.0, _margins(w, ds)))) / len(ds)


def pooled_mean_loss(w: np.ndarray, datasets: Sequence[Dataset]) -> float:
    """Mean loss across all enterprises, weighted by their sample counts."""
    total = sum(len(d) for d in datasets)
    return sum(mean_loss(w, d) * len(d) for d in datasets) / total


def global_full_gradient(txs: Sequence[LocalUpdateTx]) -> np.ndarray:
    """Combine shared gradients, each weighted by its sample count."""
    if not txs:
        raise ValueError("need at least one tx")
    dims = {tx.shared_gradient.shape for tx in txs}
    if len(dims) != 1:
        raise ValueError("tx gradient dimensions differ")
    total = sum(tx.n_samples for tx in txs)
    out = np.zeros(txs[0].shared_gradient.shape)
    for tx in txs:
        out += (tx.n_samples / total) * tx.shared_gradient
    return out


def svrg_local_cycle(
    model: GlobalModel,
    ds: Dataset,
    p: SystemParams,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One local training pass: this enterprise's new weights and the
    gradient it shares, which ``sim.run_cycle`` signs into its transaction.

    Starting from the global weights, take p.t_max corrected stochastic
    steps of size beta/N_i: each draws a uniform sample k and moves along
    grad_k(w) - grad_k(w_anchor) + anchor_gradient.  The anchor gradient
    is the model's shared full gradient, or a gradient of this dataset at
    the anchor weights during the cycle-0 bootstrap.  Returns the final
    weights and this dataset's mean gradient at them.
    """
    n_i = len(ds)
    anchor_w = np.asarray(model.weights, dtype=np.float64)
    if anchor_w.shape != (ds.dim,):
        raise ValueError("model and dataset dimensions differ")
    if model.full_gradient is not None:
        anchor_grad = np.asarray(model.full_gradient, dtype=np.float64)
    else:
        anchor_grad = average_gradient(anchor_w, ds)
    step = p.beta / n_i

    # Lazy form: the step t iterate is w_t = u_t - t*c with c = step *
    # anchor_grad, so the constant anchor term is applied once at the end,
    # and y_k x_k.w_t = y_k x_k.u_t - t*r_k.  The label multiplies scalars,
    # never a copy of the rows: negating by y_k = +-1 commutes with every
    # rounding.  The logistic is sigmoid's formula with math.exp, whose
    # last bit can differ from np.exp's (README "Determinism").
    #
    # Blocked pass: the indices are drawn _CHUNK at a time, which leaves
    # the rng in the state of t_max scalar draws, and only those rows are
    # gathered, with their anchor terms.  Within a block of _BLOCK rows,
    # u moves by -sum_i a_i x_i, so row j's dot is its block-start dot
    # d_j less sum_{i<j} a_i x_j.x_i from the block's Gram matrix, and u
    # is updated once per block.
    #
    # Per chunk, the drift terms t*r_k, the signed steps y_k*step and the
    # labels are taken as float lists, so the step loop multiplies float
    # by float.  None moves a rounding: numpy converts the int t exactly,
    # as Python does; y_k = +-1 gives (y_k*step)*v = y_k*(step*v), since
    # negation commutes with rounding; and -1.0*v is -1*v.
    #
    # A diverging pass overflows on the way; the isfinite check after it
    # reports that as one error, so the pass runs with numpy's overflow
    # and invalid-value warnings off.
    exp = math.exp
    with np.errstate(over="ignore", invalid="ignore"):
        c = step * anchor_grad
        u = anchor_w.copy()
        rows = np.empty((min(_CHUNK, p.t_max), ds.dim))
        for t0 in range(0, p.t_max, _CHUNK):
            n = min(_CHUNK, p.t_max - t0)
            ks = rng.integers(n_i, size=n)
            # every chunk gathers into one buffer; the indices are in range,
            # so "clip" only skips the checked mode's copy through a temporary
            xc = np.take(ds.x, ks, axis=0, out=rows[:n], mode="clip")
            yc = ds.y[ks]
            y = yc.astype(np.float64).tolist()
            ys = (yc * step).tolist()
            sa = sigmoid(yc * xc.dot(anchor_w)).tolist()
            tr = (np.arange(t0, t0 + n) * (yc * xc.dot(c))).tolist()
            for b0 in range(0, n, _BLOCK):
                xb = xc[b0:b0 + _BLOCK]
                a = []
                push = a.append
                for j, d, g in zip(range(b0, b0 + _BLOCK), xb.dot(u).tolist(),
                                   xb.dot(xb.T).tolist()):
                    z = y[j] * (d - sum(map(mul, a, g))) - tr[j]
                    e = exp(-abs(z))
                    s = 1.0 / (1.0 + e) if z >= 0.0 else e / (1.0 + e)
                    push(ys[j] * (s - sa[j]))
                u -= np.dot(a, xb)
        w = u - p.t_max * c
    if not np.isfinite(w).all():
        raise ValueError("local update diverged; reduce beta")

    return w, average_gradient(w, ds)


def aggregate_global(w_prev: np.ndarray, txs: Sequence[LocalUpdateTx]) -> np.ndarray:
    """Global step: w_prev plus the sample-weighted mean of (w_i - w_prev)."""
    if not txs:
        raise ValueError("need at least one tx")
    w_prev = np.asarray(w_prev, dtype=np.float64)
    for tx in txs:
        if tx.weights.shape != w_prev.shape:
            raise ValueError("tx weight dimensions differ")
    total = sum(tx.n_samples for tx in txs)
    out = w_prev.copy()
    for tx in txs:
        out += (tx.n_samples / total) * (tx.weights - w_prev)
    return out


def accuracy(w: np.ndarray, ds: Dataset) -> float:
    """Fraction of ds classified correctly by w.

    The tie w.x = 0 predicts -1, so a row is right exactly when w.x >= 0
    matches y < 0; a NaN margin predicts +1.  The exact count over len(ds)
    is the same double as the mean of the correct-row booleans.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (ds.dim,):
        raise ValueError("weight and feature dimensions differ")
    return np.count_nonzero(np.equal(ds.x @ w >= 0, ds.y < 0)) / len(ds)


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    accuracy: float


def verify_update(tx: LocalUpdateTx, test: Dataset, e0: float) -> VerifyResult:
    """Accept iff the digest recomputes and test accuracy reaches e0 (inclusive)."""
    if not 0 <= e0 <= 1:
        raise ValueError("e0 must be within [0, 1]")
    acc = accuracy(tx.weights, test)
    return VerifyResult(tx.digest_ok() and acc >= e0, acc)
