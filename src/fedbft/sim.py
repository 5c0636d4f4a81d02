"""Seeded simulation of the batching and consensus pipeline.

Transactions arrive at the leader with exponential gaps and are served FIFO
at an exponential rate.  One kernel, ``_Queue``, computes the departures of
many streams at once with Lindley's recurrence D_i = max(A_i, D_{i-1}) +
S_i, written as a running maximum over the cumulative service, one block of
transactions at a time, with scans that run row by row across many streams
and down the column of one.  It applies the seal rule stream by stream: a
block closes at the earlier of n_block served transactions or tau after the
cycle's first arrival, never before the first completion, and a stream that
runs out first flushes what has been served.

``_serve_chunk`` draws and serves one block for every stream of a queue,
one transaction at a time across the streams, stopping where no timeout can
reach; ``_voting_round`` times the voting rounds that follow at an honest
peer, each phase the sum of its vote gaps and message processing draws.
``run_cycle`` drives one training cycle through them with one stream:
``run_leader_batching`` gives the block's size and sojourn total,
``run_pbft_round`` its prepare and commit delays.  ``run_training`` repeats
cycles until the stop rule.  ``run_experiment`` replicates the pipeline in
chunks of 512 streams, each queue started in its exact stationary state, and
sets the measured delays beside ``latency.t_total`` at each realized b;
``run_sweep`` does so at each point of a parameter grid.  README
"Determinism" sets out the draw contract.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .data import Dataset, EnterpriseData
from .domain import (ALL_FIELDS, Block, ExperimentStats, LatencyBreakdown,
                     LocalUpdateTx, SystemParams)
from .fl import (GlobalModel, accuracy, aggregate_global, global_full_gradient,
                 pooled_mean_loss, svrg_local_cycle, verify_update)
from . import latency

__all__ = [
    "RandomStreams", "sample_exponential",
    "run_leader_batching", "run_pbft_round",
    "run_cycle", "TrainingRun", "run_training",
    "run_experiment", "SWEEPABLE", "run_sweep", "audit_block",
]


@dataclass
class RandomStreams:
    """Independent named substreams hanging off one 64-bit master seed.

    ``for_replication`` builds no data stream, which no chunk reads; its
    two streams are the first two children of a three-way spawn."""

    arrivals: np.random.Generator
    services: np.random.Generator
    data: np.random.Generator | None = None

    @classmethod
    def _from_seed_seq(cls, ss: np.random.SeedSequence,
                       n: int = 3) -> "RandomStreams":
        return cls(*(np.random.default_rng(c) for c in ss.spawn(n)))

    @classmethod
    def from_seed(cls, master_seed) -> "RandomStreams":
        return cls._from_seed_seq(np.random.SeedSequence(master_seed))

    @classmethod
    def for_replication(cls, master_seed, rep: int) -> "RandomStreams":
        key = (master_seed,) if isinstance(master_seed, int) else tuple(master_seed)
        return cls._from_seed_seq(np.random.SeedSequence(key + (rep,)), 2)


def sample_exponential(rate: float, rng: np.random.Generator, size=None,
                       out=None):
    """Inverse-CDF exponential draw(s): -ln(u)/rate with u in (0, 1].

    With ``out``, a C-contiguous float64 array, the draws fill it in place
    and it is returned; the values are those of a fresh draw of its shape.
    """
    if not rate > 0:
        raise ValueError("rate must be positive")
    u = rng.random(size, out=out)
    return np.divide(np.log1p(np.negative(u, out=out), out=out), -rate, out=out)


# replications per seeded chunk, a constant of the stream contract, and
# drawn elements per block of transactions, which the output ignores: 128
# transactions of a chunk's 512 streams
_CHUNK_REPS = 512
_CHUNK_ELEMENTS = 1 << 16
# streams from which the kernel scans row by row, not down each column: over
# 36 rows an accumulate took 0.8 us at 1 stream and 33 us at 256, the row
# loop 33 and 15 us (2-core host); they cross at about 128 streams
_ROW_SCAN_STREAMS = 128


class _Queue:
    """FIFO departures and the seal rule: the simulator's one queue kernel.

    It serves many streams at once, one block of transactions at a time.
    ``buf`` is a (5, 1 + width, columns) float64 buffer of arrival times A,
    service times S, cumulative service C, departures D and sojourns, and
    row k of each holds the k-th transaction of every column, so a block's
    rows are contiguous.  Every column is drawn; the leading ones, the
    streams, are served.  D_i = max(A_i, D_{i-1}) + S_i is evaluated as
    C_i + max_{j<=i}(A_j - C_j + S_j) by four scans (``_scan``).  Row 0
    carries the state at the last transaction served: A[0] the last
    arrival, C[0] the cumulative service, D[0] the running maximum and the
    sojourn row the block's total so far, so every scan continues exactly
    as over one whole stream, in arrival order.  A stream's block seals at
    its n_block-th departure if that comes no later than tau after its
    first arrival; otherwise at that timeout, holding the transactions
    served by then, or the first one if none was.  Callers serve at most
    n_block transactions, so with no timeout a stream too short to fill a
    block flushes all of them.
    """

    def __init__(self, p: SystemParams, buf: np.ndarray):
        # ``view`` is the served columns of ``buf``, and ``rows`` row views
        # of their A, S, C, D and sojourns, built as far as served
        self.p, self.buf, self.view = p, buf, buf
        self.rows: list[list[np.ndarray]] = [[]]
        self.start()

    def start(self, streams: int | None = None) -> None:
        """Empty the queue for a new set of streams: the leading
        ``streams`` columns, or all of them."""
        view = self.buf[:, :, :streams]
        if view.shape != self.view.shape:
            self.view, self.rows = view, [[]]
        view[:, 0] = 0.0
        view[3, 0] = -math.inf
        # the block size so far of each stream
        self.b = np.zeros(view.shape[2], dtype=np.intp)
        self.timeout_at = None

    def columns(self, w: int) -> tuple[np.ndarray, np.ndarray]:
        """The (w, columns) rows for the next block's gaps and services."""
        return self.buf[0, 1:w + 1], self.buf[1, 1:w + 1]

    def _scan(self, ufunc, src: int, dst: int, w: int) -> None:
        """Row i of ``dst`` becomes ufunc(row i-1 of ``dst``, row i of
        ``src``) for i = 1..w from row 0's carry, which then takes row w:
        by row views kept from call to call, or, below ``_ROW_SCAN_STREAMS``
        streams, by one accumulate from the carry put in ``src``'s row 0."""
        out = self.view[dst, :w + 1]
        if self.view.shape[2] < _ROW_SCAN_STREAMS:
            x = self.view[src, :w + 1]
            x[0] = out[0]
            ufunc.accumulate(x, axis=0, out=out)
        else:
            if len(self.rows[0]) <= w:
                self.rows = [list(x) for x in self.view[:, :w + 1]]
            s, d = self.rows[src], self.rows[dst]
            for i in range(1, w + 1):
                ufunc(d[i - 1], s[i], out=d[i])
        out[0] = out[w]

    def serve(self, w: int) -> bool:
        """Serve the w transactions filled in through ``columns``; return
        whether every stream's last arrival is past its timeout, after which
        no later transaction can join a block."""
        A, S, C, D, T = self.view[:, 1:w + 1]
        self._scan(np.add, 0, 0, w)
        self._scan(np.add, 1, 2, w)
        np.subtract(A, C, out=D)
        D += S
        self._scan(np.maximum, 3, 3, w)  # carried before C turns it into D
        D += C
        first = self.timeout_at is None
        if first:
            self.timeout_at = A[0] + self.p.tau
        # departures never decrease along a stream, so the served ones
        # lead; a block holds its first transaction even when that departs
        # after the timeout
        served = D <= self.timeout_at
        served[0] |= first
        self.b += served.sum(axis=0)
        np.subtract(D, A, out=T)
        T *= served
        self._scan(np.add, 4, 4, w)  # each block's sojourns, in arrival order
        return bool((self.view[0, 0] > self.timeout_at).all())

    @property
    def sojourn_total(self) -> np.ndarray:
        return self.view[4, 0]


def _first_width(p: SystemParams) -> int:
    """Transactions a chunk draws first: lambda tau + 3 sqrt(lambda tau) +
    3, or all n_block with no timeout.  A chunk's reach is 2 plus the
    largest of its 512 Poisson(lambda tau) arrival counts within a
    timeout.  For lambda tau from 0.01 to 100 this width lies between
    the reach's median and 80th percentile, or one row below the median
    (37 and 38 rows at lambda tau = 20, where it is 36)."""
    reach = p.lam * p.tau
    return int(min(p.n_block, reach + 3 * math.sqrt(reach) + 3))


def _later_width(p: SystemParams) -> int:
    """Transactions a chunk draws next if its first block falls short:
    sqrt(lambda tau) / 4 + 2.  For lambda tau from 0.01 to 100 the two
    blocks cover the reach of at least 74 % of chunks, and a third, twice
    as wide, that of at least 97 % (89 % and 99.9 % at lambda tau = 20).
    n_block bounds it, so it stays finite at tau = inf."""
    return int(min(p.n_block, math.sqrt(p.lam * p.tau) / 4 + 2))


def _serve_chunk(p: SystemParams, queue: _Queue, streams: RandomStreams,
                 n: int, initial=0.0) -> None:
    """Draw n transactions for every column of a started ``queue`` and
    seal a block for each of its streams.

    ``streams`` gives the gaps and the services one transaction at a time
    across the queue's columns, and ``initial`` is added to the first
    services.  The first min(n, n_block) are drawn and served in blocks
    that fit the queue: ``_first_width``, ``_later_width``, then doubling.
    Once every last arrival is past its timeout, each stream skips the
    rest of the n with one ``advance``, which leaves it where drawing would.
    """
    columns, cap = queue.buf.shape[2], queue.buf.shape[1] - 1
    m = min(n, p.n_block)
    done, w = 0, _first_width(p)
    while done < m:
        w = min(w, cap, m - done)
        gaps, services = queue.columns(w)
        sample_exponential(p.lam, streams.arrivals, out=gaps)
        sample_exponential(p.mu, streams.services, out=services)
        if not done:
            services[0] += initial
        done += w
        if queue.serve(w):
            break
        w = 2 * w if done > w else _later_width(p)  # done == w after the first
    streams.arrivals.bit_generator.advance((n - done) * columns)
    streams.services.bit_generator.advance((n - done) * columns)


def _voting_round(p: SystemParams, streams: RandomStreams, columns: int):
    """(t_prepare, t_commit) rows of ``columns`` voting rounds: 2f prepare
    then 2f commit vote gaps from ``streams.arrivals``, 2f+1 prepare then
    2f+1 commit processing draws from ``streams.services``, a row of
    ``columns`` at a time, each summed by numpy: in draw order across many
    columns, pairwise down one column of 8 or more."""
    twof = 2 * p.f
    gaps = sample_exponential(p.lam, streams.arrivals, (2, twof, columns))
    procs = sample_exponential(p.mu, streams.services, (2, twof + 1, columns))
    return gaps.sum(axis=1) + procs.sum(axis=1)


def run_leader_batching(p: SystemParams, n: int,
                        streams: RandomStreams) -> tuple[int, float]:
    """Serve n transactions FIFO at rate mu and seal one block.

    ``_serve_chunk`` on one stream with no initial wait, which leaves
    ``streams`` where n gaps and n services would.  Returns the block's
    size b and its sojourn total, the sum of departure minus arrival over
    its b transactions in arrival order.
    """
    if n < 1:
        raise ValueError("no arrivals to batch")
    queue = _Queue(p, np.empty((5, min(n, p.n_block, _CHUNK_ELEMENTS) + 1, 1)))
    _serve_chunk(p, queue, streams, n)
    return int(queue.b[0]), float(queue.sojourn_total[0])


def run_pbft_round(p: SystemParams, streams: RandomStreams) -> tuple[float, float]:
    """Time the prepare and commit phases at an honest peer.

    In each phase the peer waits for 2f votes (exponential(lambda) gaps),
    then works through the 2f+1 matching messages at exponential(mu)
    apiece.  Which f peers are faulty does not change that sum.  Returns
    (t_prepare, t_commit).
    """
    prepare, commit = _voting_round(p, streams, 1)
    return float(prepare[0]), float(commit[0])


def _passes_verification(
    tx: LocalUpdateTx,
    enterprises: Sequence[EnterpriseData],
    p: SystemParams,
) -> bool:
    """A tx enters the candidate block only if every other peer accepts it.

    Enterprise i sits at peer i mod n_peers; peer j verifies against the
    test set of enterprise j mod the enterprise count, so each distinct
    test set is checked once.
    """
    own = tx.enterprise_id % p.n_peers
    n = len(enterprises)
    # peers 0..2n-1 reach every test set twice, so dropping ``own`` still
    # leaves each one, and later peers reach none that is new
    peers = range(min(p.n_peers, 2 * n))
    return all(verify_update(tx, enterprises[k].test, p.e0).accepted
               for k in {j % n for j in peers if j != own})


class _NothingToSeal(ValueError):
    """Cross-verification rejected every transaction of a cycle."""


def run_cycle(
    p: SystemParams,
    enterprises: Sequence[EnterpriseData],
    model: GlobalModel,
    streams: "RandomStreams",
    adversaries: Iterable[int] = (),
) -> tuple[GlobalModel, LatencyBreakdown, Block]:
    """Execute one full training cycle and account for its latency.

    The breakdown is ``latency.t_total`` at the block's size and its
    largest n_samples, so the slowest enterprise whose update the block
    holds sets t_local; its consensus phases are replaced by simulated
    ones: the block's sojourn total, then the voting round.  Transactions
    that fail cross-verification never reach the candidate block, and the
    global step aggregates the sealed block's transactions only.
    Adversarial enterprises submit random weights instead of training.
    """
    if not enterprises:
        raise ValueError("need at least one enterprise")
    adversaries = frozenset(adversaries)
    dim = model.weights.shape[0]

    txs = []
    for idx, ent in enumerate(enterprises):
        created = latency.t_local_update(p.delta_d, len(ent.train), p.f_c)
        if idx in adversaries:
            txs.append(LocalUpdateTx(
                idx, streams.data.standard_normal(dim),
                streams.data.standard_normal(dim), len(ent.train), created))
        else:
            txs.append(svrg_local_cycle(model, ent.train, p, streams.data,
                                        created_at=created))

    verified = [tx for tx in txs if _passes_verification(tx, enterprises, p)]
    if not verified:
        raise _NothingToSeal("all txs rejected: nothing to seal")
    verified.sort(key=lambda tx: (tx.created_at, tx.enterprise_id))

    b, sojourn_total = run_leader_batching(p, len(verified), streams)
    block_txs = verified[:b]
    block = Block.seal(block_txs, p.n_block)
    t_prepare, t_commit = run_pbft_round(p, streams)

    new_weights = aggregate_global(model.weights, block_txs)
    new_model = GlobalModel(new_weights, global_full_gradient(block_txs))
    breakdown = replace(
        latency.t_total(p, max(tx.n_samples for tx in block_txs), b),
        t_preprepare=sojourn_total, t_prepare=t_prepare, t_commit=t_commit)
    return new_model, breakdown, block


@dataclass
class TrainingRun:
    """Everything a training session produced, cycle by cycle.

    ``result`` is "converged", "cycle-cap", or "stalled" when a cycle's
    candidate set came out empty and nothing could be sealed.
    ``adversary_blocks`` counts the sealed blocks holding an adversary's tx.
    """

    rows: list[tuple]
    blocks: list[Block]
    result: str
    adversary_blocks: int


def run_training(
    p: SystemParams,
    enterprises: Sequence[EnterpriseData],
    holdout: Dataset,
    streams: "RandomStreams",
    adversaries: Sequence[int] = (),
    cycle_cap: int = 500,
) -> TrainingRun:
    """Drive whole training cycles until the stop rule, the cycle cap or a
    cycle with nothing to seal.

    Each row records the cycle index, the global weight move, held-out
    accuracy, pooled training loss, the sealed block's transaction count
    and the full latency breakdown.  An adversary id that names no
    enterprise and a non-finite latency model are rejected before any
    training.
    """
    for a in adversaries:
        if not 0 <= a < len(enterprises):
            raise ValueError(f"adversary id {a} out of range")
    if cycle_cap < 1:
        raise ValueError("cycle_cap must be >= 1")
    if not enterprises:
        raise ValueError("need at least one enterprise")
    # no cycle's model exceeds the one at n_block and the largest n_samples
    latency.t_total(p, max(len(e.train) for e in enterprises), p.n_block)
    model = GlobalModel.initial(enterprises[0].train.dim)
    train_sets = [e.train for e in enterprises]
    rows: list[tuple] = []
    blocks: list[Block] = []
    result = "cycle-cap"
    for cycle in range(1, cycle_cap + 1):
        prev = model.weights
        try:
            model, breakdown, block = run_cycle(p, enterprises, model,
                                                streams, adversaries)
        except _NothingToSeal:
            result = "stalled"
            break
        # hypot scales as it sums, so a finite move has a finite norm
        delta = math.hypot(*(model.weights - prev).tolist())
        rows.append((
            cycle, delta, accuracy(model.weights, holdout),
            pooled_mean_loss(model.weights, train_sets), len(block.txs),
            *(getattr(breakdown, name) for name in ALL_FIELDS),
        ))
        blocks.append(block)
        if delta <= p.epsilon:
            result = "converged"
            break
    admitted = sum(any(tx.enterprise_id in adversaries for tx in block.txs)
                   for block in blocks)
    return TrainingRun(rows, blocks, result, admitted)


def audit_block(
    block: Block,
    enterprises: Sequence[EnterpriseData],
    p: SystemParams,
) -> bool:
    """Recheck a sealed block: every tx must still pass cross-verification."""
    return all(tx.digest_ok() and _passes_verification(tx, enterprises, p)
               for tx in block.txs)


MAX_REPS = 1_000_000
MAX_DRAWS = 1 << 30


def _row_width(p: SystemParams) -> int:
    """Draws of one replication, over both streams: n_block gaps and 4f vote
    gaps, then an initial wait, n_block services and 2(2f+1) processing
    draws."""
    return 2 * p.n_block + 4 * p.f + 2 * (2 * p.f + 1) + 1


def _initial_wait(p: SystemParams, e: np.ndarray) -> np.ndarray:
    """The stationary M/M/1 wait of a stream's first arrival, from Exp(mu)
    draws ``e``: 0 with probability 1 - rho, else Exp(mu - lambda).  rho
    is floored at the least normal float, where the wait is already 0:
    mu e = -log1p(-u) <= 36.8 for every draw."""
    return np.maximum(0.0, (math.log(max(p.lam / p.mu, sys.float_info.min))
                            + p.mu * e) / (p.mu - p.lam))


def _replication_draws(p: SystemParams, replications: int,
                       master_seed) -> np.ndarray:
    """(replications, 4) rows of (b, preprepare, prepare, commit).

    Replications c*R .. c*R + R - 1 (R = ``_CHUNK_REPS``) are the columns
    of chunk c, which reads ``RandomStreams.for_replication(master_seed,
    c)`` one transaction at a time: R initial waits from the services
    stream, then ``_serve_chunk``'s n_block transactions and
    ``_voting_round``'s draws, R columns each.  A short last chunk draws
    all R columns but serves only the leading ones the run keeps.
    """
    R, cap = _CHUNK_REPS, max(1, _CHUNK_ELEMENTS // _CHUNK_REPS)
    draws = np.empty((replications, 4))
    queue = _Queue(p, np.empty((5, min(p.n_block, cap) + 1, R)))
    for first in range(0, replications, R):
        rows = min(R, replications - first)
        streams = RandomStreams.for_replication(master_seed, first // R)
        initial = _initial_wait(p, sample_exponential(p.mu, streams.services, R))
        queue.start(rows)
        _serve_chunk(p, queue, streams, p.n_block, initial)
        draws[first:first + rows] = np.transpose(
            (queue.b, queue.sojourn_total,
             *_voting_round(p, streams, R)[:, :rows]))
    return draws


def _check_experiment(p: SystemParams, replications: int,
                      n_samples: int) -> None:
    """Reject a bad replication count, a run that could draw more than
    ``MAX_DRAWS`` values, or a bad n_samples or non-finite model, before
    anything is drawn."""
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if replications > MAX_REPS:
        raise ValueError(f"replications must be <= {MAX_REPS}")
    # every chunk draws all of its replications
    drawn = -(-replications // _CHUNK_REPS) * _CHUNK_REPS
    width = _row_width(p)
    if drawn * width > MAX_DRAWS:
        raise ValueError(f"replications x draws per replication must be <= "
                         f"{MAX_DRAWS}, got {drawn} x {width}; a run draws "
                         f"whole chunks of {_CHUNK_REPS} replications")
    # no b up to n_block predicts more than b = n_block
    latency.t_total(p, n_samples, p.n_block)


def _stat_row(values, n: int) -> tuple[float, float]:
    """Mean and standard error of n replications, from an array of their n
    values or from the one value they all share.

    Each value's deviation from the first is scaled by a power of two,
    which is exact, so that the largest is below 1 and no sum or square
    overflows; then they are summed (Chan, Golub & LeVeque, Am. Stat. 37,
    1983).  Equal values report that value and a standard error of 0, and
    one replication a standard error of NaN.
    """
    values = np.atleast_1d(values)
    # the range bounds every deviation from the first value
    exp = math.frexp(float(np.ptp(values)))[1]
    dev = np.ldexp(values - values[0], -exp)
    shift = float(dev.sum()) / n
    mean = float(values[0]) + math.ldexp(shift, exp)
    if n < 2:
        return mean, math.nan
    var = float(np.square(dev - shift).sum()) / (n - 1)
    return mean, math.ldexp(math.sqrt(var / n), exp)


def run_experiment(
    p: SystemParams,
    replications: int,
    master_seed: int,
    n_samples: int = 500,
) -> ExperimentStats:
    """Replicate the consensus pipeline and compare with the model.

    Each replication starts the leader's queue in its stationary state, the
    regime the formulas describe, then seals and votes on one block.
    Chunks of replications seed their substreams from (master_seed, chunk).
    A replication's prediction is ``latency.t_total`` at its realized b,
    evaluated in one call over the array of every replication's b; its
    measurement is that breakdown with the three consensus phases replaced
    by simulated ones.  A component that does not depend on b stays the
    one value every replication shares.  Every field, the four sums
    included, gets a mean and a standard error (``_stat_row``), the mean
    prediction and a relative error, NaN where that prediction is 0.
    """
    _check_experiment(p, replications, n_samples)
    bs, pre, prep, com = _replication_draws(p, replications, master_seed).T
    model = latency.t_total(p, n_samples, bs)
    sim = replace(model, t_preprepare=pre, t_prepare=prep, t_commit=com)

    rows = {name: _stat_row(getattr(sim, name), replications)
            for name in ALL_FIELDS}
    mean = {name: m for name, (m, _) in rows.items()}
    analytic = {name: _stat_row(getattr(model, name), replications)[0]
                for name in ALL_FIELDS}
    return ExperimentStats(
        mean=mean,
        std_err={n: se for n, (_, se) in rows.items()},
        analytic=analytic,
        rel_error={n: abs(mean[n] - analytic[n]) / analytic[n] if analytic[n]
                   else math.nan for n in ALL_FIELDS},
    )


SWEEPABLE = ("lambda", "f", "n_block", "mu", "tau")
_INT_PARAMS = {"f", "n_block"}
MAX_SWEEP_POINTS = 10_000


def _sweep_points(base: SystemParams, param: str, start: float, stop: float,
                  step: float) -> list[tuple[float, SystemParams]]:
    """(value, params) for each grid value of param from start to stop by step."""
    if not step > 0:
        raise ValueError("step must be positive")
    if not start < stop:
        raise ValueError("empty sweep range: start must be < stop")
    span = np.floor((stop - start) / step + 1e-9)
    if not span < MAX_SWEEP_POINTS:  # also catches an infinite span
        raise ValueError(f"sweep grid exceeds {MAX_SWEEP_POINTS} points")
    values = [start + k * step for k in range(int(span) + 1)]
    # check every value before building any point, so a grid of 0, 0.5, 1
    # reports its non-integer value rather than the point n_block=0
    if param in _INT_PARAMS and any(abs(v - round(v)) > 1e-9 for v in values):
        raise ValueError(f"{param} sweep requires integer values")
    points = []
    for v in values:
        if param == "f":
            # an f sweep keeps the peer count consistent with the fault budget
            changes = {"f": round(v), "n_peers": 3 * round(v) + 1}
        elif param == "n_block":
            changes = {"n_block": round(v)}
        else:
            changes = {"lam" if param == "lambda" else param: v}
        points.append((v, replace(base, **changes)))
    return points


def run_sweep(base: SystemParams, param: str, start: float, stop: float,
              step: float, replications: int, master_seed: int,
              n_samples: int) -> list[tuple[float, ExperimentStats]]:
    """``run_experiment`` at each value of param from start to stop by step.

    ``param`` is one of ``SWEEPABLE``; an f sweep sets n_peers = 3f + 1
    with it.  Every point is checked before the first one runs, and point
    k seeds its replications from (master_seed, k).
    """
    points = _sweep_points(base, param, start, stop, step)
    for _, p in points:
        _check_experiment(p, replications, n_samples)
    return [(value, run_experiment(p, replications, (master_seed, k), n_samples))
            for k, (value, p) in enumerate(points)]
