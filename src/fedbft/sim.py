"""Seeded discrete-event simulation of the batching and consensus pipeline.

The leader's queue is simulated event by event: transactions arrive with
exponential gaps, are served FIFO at an exponential rate, and a block is
sealed at the earlier of n_block served transactions or tau elapsed since
the measured cycle's first arrival (never before the first completion).
A voting round is then timed at one fixed honest observer peer.

``run_experiment`` repeats that pipeline many times.  Its inner loop is a
vectorized transcription of the same recurrences drawing from identical
substreams, which the test suite holds equal to the event-driven path.
"""
from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .data import Dataset, EnterpriseData
from .domain import (ALL_FIELDS, Block, ExperimentStats, LatencyBreakdown,
                     LocalUpdateTx, SystemParams)
from .fl import (GlobalModel, aggregate_global, global_full_gradient,
                 svrg_local_cycle, verify_update)
from . import latency

__all__ = [
    "TX_ARRIVAL", "SERVICE_COMPLETE", "BLOCK_SEALED", "PRE_PREPARE_RECV",
    "PREPARE_RECV", "COMMIT_RECV", "REPLY_SENT",
    "Event", "EventQueue", "PeerState", "RandomStreams",
    "sample_exponential", "generate_arrivals", "arrival_times",
    "LeaderBatch", "run_leader_batching",
    "ConsensusTiming", "run_pbft_round",
    "run_cycle", "run_experiment", "audit_block",
]

TX_ARRIVAL = "TxArrival"
SERVICE_COMPLETE = "ServiceComplete"
BLOCK_SEALED = "BlockSealed"
PRE_PREPARE_RECV = "PrePrepareRecv"
PREPARE_RECV = "PrepareRecv"
COMMIT_RECV = "CommitRecv"
REPLY_SENT = "ReplySent"

EVENT_KINDS = (TX_ARRIVAL, SERVICE_COMPLETE, BLOCK_SEALED, PRE_PREPARE_RECV,
               PREPARE_RECV, COMMIT_RECV, REPLY_SENT)


@dataclass(frozen=True)
class Event:
    """One scheduled occurrence; ordering is by (time, seq), so ties resolve
    in scheduling order."""

    time: float
    seq: int
    kind: str
    payload: object = None

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class EventQueue:
    """Min-heap of events with a monotone clock.

    Scheduling into the past raises, and pop() never runs backwards, which
    together give the causality guarantee the tests lean on.
    """

    def __init__(self, collect_trace: bool = False):
        self._heap: list[Event] = []
        self._seq = 0
        self.now = 0.0
        self.trace: Optional[list[Event]] = [] if collect_trace else None

    def push(self, time: float, kind: str, payload: object = None) -> Event:
        if time < self.now:
            raise ValueError("cannot schedule an event before the current time")
        ev = Event(time, self._seq, kind, payload)
        self._seq += 1
        heapq.heappush(self._heap, ev)
        return ev

    def pop(self) -> Event:
        ev = heapq.heappop(self._heap)
        self.now = ev.time
        if self.trace is not None:
            self.trace.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._heap)


@dataclass
class PeerState:
    """Book-keeping for one consensus peer."""

    peer_id: int
    is_leader: bool = False
    is_faulty: bool = False
    inbox: deque = field(default_factory=deque)
    prepare_count: int = 0
    commit_count: int = 0


@dataclass
class RandomStreams:
    """Independent named substreams hanging off one 64-bit master seed."""

    arrivals: np.random.Generator
    services: np.random.Generator
    data: np.random.Generator
    faults: np.random.Generator

    @classmethod
    def _from_seed_seq(cls, ss: np.random.SeedSequence) -> "RandomStreams":
        children = ss.spawn(4)
        return cls(*(np.random.default_rng(c) for c in children))

    @classmethod
    def from_seed(cls, master_seed) -> "RandomStreams":
        return cls._from_seed_seq(np.random.SeedSequence(master_seed))

    @classmethod
    def for_replication(cls, master_seed, rep: int) -> "RandomStreams":
        key = (master_seed,) if isinstance(master_seed, int) else tuple(master_seed)
        return cls._from_seed_seq(np.random.SeedSequence(key + (rep,)))


def sample_exponential(rate: float, rng: np.random.Generator, size=None):
    """Inverse-CDF exponential draw(s): -ln(u)/rate with u in (0, 1]."""
    if not rate > 0:
        raise ValueError("rate must be positive")
    u = rng.random(size)
    return -np.log1p(-u) / rate


def arrival_times(lam: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Times of the first `count` arrivals of a rate-lam Poisson process."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return np.cumsum(sample_exponential(lam, rng, count))


def generate_arrivals(lam: float, horizon: float, rng: np.random.Generator) -> np.ndarray:
    """All arrival times of a rate-lam Poisson process inside [0, horizon)."""
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    chunk = max(64, int(lam * horizon * 1.2))
    times = np.empty(0)
    last = 0.0
    while last < horizon:
        gaps = sample_exponential(lam, rng, chunk)
        new = last + np.cumsum(gaps)
        times = np.concatenate([times, new])
        last = float(new[-1])
    return times[times < horizon]


@dataclass(frozen=True)
class LeaderBatch:
    """Outcome of serving one arrival stream through the leader's queue.

    ``sojourns`` covers every transaction in the stream; the sealed block
    holds the ``b`` transactions starting at index ``first_tx``.
    """

    b: int
    seal_time: float
    first_tx: int
    sojourns: np.ndarray
    timed_out: bool

    @property
    def block_sojourn_total(self) -> float:
        return float(self.sojourns[self.first_tx:self.first_tx + self.b].sum())


def run_leader_batching(
    p: SystemParams,
    arrivals: np.ndarray,
    rng: np.random.Generator,
    first_tx: int = 0,
    collect_trace: bool = False,
) -> LeaderBatch:
    """Serve an arrival stream FIFO at rate mu and seal one block.

    The sealed block collects served transactions from index ``first_tx``
    on (earlier ones model an already-running stream) and closes at the
    earlier of p.n_block of them served or p.tau after arrival number
    ``first_tx`` -- but never before the first completion.  Exhausting the
    stream flushes whatever has been served.  All service times are drawn
    from ``rng`` up front in arrival order.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    n = arrivals.size
    if n == 0:
        raise ValueError("no arrivals to batch")
    if np.any(np.diff(arrivals) < 0) or arrivals[0] < 0:
        raise ValueError("arrival times must be nondecreasing and >= 0")
    if not 0 <= first_tx < n:
        raise ValueError("first_tx out of range")

    services = np.atleast_1d(sample_exponential(p.mu, rng, n))
    q = EventQueue(collect_trace)
    for i in range(n):
        q.push(arrivals[i], TX_ARRIVAL, i)
    timeout_at = arrivals[first_tx] + p.tau
    if math.isfinite(timeout_at):
        q.push(timeout_at, BLOCK_SEALED, None)

    waiting: deque[int] = deque()
    busy = False
    departures = np.empty(n)
    served_in_cycle = 0
    b: Optional[int] = None
    seal_time = 0.0
    timed_out = False
    timeout_pending = False

    while len(q):
        ev = q.pop()
        if ev.kind == TX_ARRIVAL:
            i = ev.payload
            if busy:
                waiting.append(i)
            else:
                busy = True
                q.push(ev.time + services[i], SERVICE_COMPLETE, i)
        elif ev.kind == SERVICE_COMPLETE:
            i = ev.payload
            departures[i] = ev.time
            if i >= first_tx and b is None:
                served_in_cycle += 1
                if timeout_pending:
                    q.push(ev.time, BLOCK_SEALED, served_in_cycle)
                elif served_in_cycle == p.n_block:
                    q.push(ev.time, BLOCK_SEALED, served_in_cycle)
            if waiting:
                j = waiting.popleft()
                q.push(ev.time + services[j], SERVICE_COMPLETE, j)
            else:
                busy = False
        elif ev.kind == BLOCK_SEALED:
            if b is not None:
                continue  # stale timeout after a size-triggered seal
            if ev.payload is not None:
                b = int(ev.payload)
                seal_time = ev.time
                timed_out = timeout_pending
            elif served_in_cycle >= 1:
                b = served_in_cycle
                seal_time = ev.time
                timed_out = True
            else:
                timeout_pending = True

    if b is None:  # arrival stream exhausted before either trigger
        b = served_in_cycle
        seal_time = float(departures[-1])
        timed_out = False
    return LeaderBatch(b, seal_time, first_tx, departures - arrivals, timed_out)


@dataclass(frozen=True)
class ConsensusTiming:
    """Phase delays observed at the fixed honest observer peer."""

    t_preprepare: float
    t_prepare: float
    t_commit: float
    committed: bool
    observer: int
    faulty: frozenset[int]


def _pbft_draws(p: SystemParams, streams: "RandomStreams"):
    """All randomness for one voting round, in the canonical order."""
    twof = 2 * p.f
    gaps_prepare = np.atleast_1d(sample_exponential(p.lam, streams.arrivals, twof)) \
        if twof else np.empty(0)
    gaps_commit = np.atleast_1d(sample_exponential(p.lam, streams.arrivals, twof)) \
        if twof else np.empty(0)
    proc_prepare = np.atleast_1d(sample_exponential(p.mu, streams.services, twof + 1))
    proc_commit = np.atleast_1d(sample_exponential(p.mu, streams.services, twof + 1))
    return gaps_prepare, gaps_commit, proc_prepare, proc_commit


def _draw_faulty(p: SystemParams, streams: "RandomStreams") -> frozenset[int]:
    if p.f == 0:
        return frozenset()
    picks = streams.faults.choice(np.arange(1, p.n_peers), size=p.f, replace=False)
    return frozenset(int(i) for i in picks)


def run_pbft_round(
    p: SystemParams,
    batch: LeaderBatch,
    streams: "RandomStreams",
    faulty: Optional[Iterable[int]] = None,
    collect_trace: bool = False,
) -> ConsensusTiming:
    """Time one three-phase voting round at a fixed honest observer.

    The batching sojourn total is the pre-prepare delay.  In each voting
    phase the observer waits for 2f votes from distinct honest peers
    (exponential(lambda) gaps), then works through the 2f+1 matching
    messages at exponential(mu) apiece; faulty peers stay silent.  Fewer
    than 2f+1 live peers makes the quorum unreachable.
    """
    faulty = frozenset(int(i) for i in faulty) if faulty is not None \
        else _draw_faulty(p, streams)
    if 0 in faulty:
        raise ValueError("the leader never leads faulty: peer 0 must be honest")
    if not faulty <= set(range(p.n_peers)):
        raise ValueError("faulty peer id out of range")
    peers = [PeerState(i, is_leader=(i == 0), is_faulty=(i in faulty))
             for i in range(p.n_peers)]
    honest = [s.peer_id for s in peers if not s.is_faulty]
    if len(honest) < 2 * p.f + 1:
        raise ValueError("quorum unreachable: more than f peers are faulty")
    observer = next(s for s in peers if not s.is_faulty and not s.is_leader) \
        if len(honest) > 1 else peers[0]
    senders = [i for i in honest if i != observer.peer_id][:2 * p.f]

    gaps_prep, gaps_com, proc_prep, proc_com = _pbft_draws(p, streams)
    q = EventQueue(collect_trace)
    q.push(0.0, PRE_PREPARE_RECV, observer.peer_id)

    def run_phase(kind: str, start: float, gaps, procs) -> float:
        """One voting phase from `start`; returns its completion time."""
        count_attr = "prepare_count" if kind == PREPARE_RECV else "commit_count"
        setattr(observer, count_attr, 1)  # the observer's own vote
        for sender, t in zip(senders, start + np.cumsum(gaps)):
            q.push(t, kind, sender)
        quorum_at = start
        while getattr(observer, count_attr) < 2 * p.f + 1:
            ev = q.pop()
            observer.inbox.append(ev.payload)
            setattr(observer, count_attr, getattr(observer, count_attr) + 1)
            quorum_at = ev.time
        t = quorum_at
        for dt in procs:
            t += dt
            q.push(t, SERVICE_COMPLETE, observer.peer_id)
            q.pop()
            if observer.inbox:
                observer.inbox.popleft()
        return t

    ev = q.pop()
    assert ev.kind == PRE_PREPARE_RECV
    prepare_end = run_phase(PREPARE_RECV, ev.time, gaps_prep, proc_prep)
    commit_end = run_phase(COMMIT_RECV, prepare_end, gaps_com, proc_com)
    q.push(commit_end, REPLY_SENT, observer.peer_id)
    q.pop()
    committed = observer.commit_count >= 2 * p.f + 1
    return ConsensusTiming(
        t_preprepare=batch.block_sojourn_total,
        t_prepare=prepare_end - ev.time,
        t_commit=commit_end - prepare_end,
        committed=committed,
        observer=observer.peer_id,
        faulty=faulty,
    )


def _peer_of(enterprise_id: int, n_peers: int) -> int:
    return enterprise_id % n_peers

def _test_set_of(peer_id: int, enterprises: Sequence[EnterpriseData]) -> Dataset:
    return enterprises[peer_id % len(enterprises)].test


def _passes_verification(
    tx: LocalUpdateTx,
    enterprises: Sequence[EnterpriseData],
    p: SystemParams,
) -> bool:
    """A tx enters the candidate block only if every other peer accepts it."""
    own = _peer_of(tx.enterprise_id, p.n_peers)
    for peer_id in range(p.n_peers):
        if peer_id == own:
            continue
        if not verify_update(tx, _test_set_of(peer_id, enterprises), p.e0).accepted:
            return False
    return True


def run_cycle(
    p: SystemParams,
    enterprises: Sequence[EnterpriseData],
    model: GlobalModel,
    streams: "RandomStreams",
    adversaries: Iterable[int] = (),
) -> tuple[GlobalModel, LatencyBreakdown, Block]:
    """Execute one full training cycle and account for its latency.

    Local training and the up/down links contribute their deterministic
    formula delays; batching and voting are simulated.  t_local is the
    largest created_at among the sealed block's txs, so the slowest
    enterprise whose update the block holds sets it.  Transactions that
    fail cross-verification never reach the candidate block, and the
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
            txs.append(LocalUpdateTx.create(
                idx, streams.data.standard_normal(dim),
                streams.data.standard_normal(dim), len(ent.train), created))
        else:
            txs.append(svrg_local_cycle(model, ent.train, p, streams.data,
                                        created_at=created))

    verified = [tx for tx in txs if _passes_verification(tx, enterprises, p)]
    if not verified:
        raise ValueError("all txs rejected: nothing to seal")
    verified.sort(key=lambda tx: (tx.created_at, tx.enterprise_id))

    arr = arrival_times(p.lam, len(verified), streams.arrivals)
    batch = run_leader_batching(p, arr, streams.services)
    block_txs = verified[:batch.b]
    block = Block.seal(block_txs, batch.seal_time, p.h, p.delta_m, p.n_block)
    voting = run_pbft_round(p, batch, streams)

    new_weights = aggregate_global(model.weights, block_txs)
    new_model = GlobalModel(new_weights, global_full_gradient(block_txs),
                            model.cycle + 1)
    breakdown = LatencyBreakdown(
        t_local=max(tx.created_at for tx in block_txs),
        t_up=latency.t_upload(p.delta_m, p.w_up, p.gamma_up),
        t_preprepare=voting.t_preprepare,
        t_prepare=voting.t_prepare,
        t_commit=voting.t_commit,
        t_dn=latency.t_download(p.h, batch.b, p.delta_m, p.w_dn, p.gamma_dn),
        t_global=latency.t_global_update(p.delta_m, p.n_block, p.f_c),
    )
    return new_model, breakdown, block


def audit_block(
    block: Block,
    enterprises: Sequence[EnterpriseData],
    p: SystemParams,
) -> bool:
    """Recheck a sealed block: every tx must still pass cross-verification."""
    return all(tx.digest_ok() and _passes_verification(tx, enterprises, p)
               for tx in block.txs)


def _fast_replication(p: SystemParams, streams: "RandomStreams", warmup: int):
    """Vectorized twin of run_leader_batching + run_pbft_round.

    Draws the exact substream values the event-driven pair would draw and
    applies the same FIFO recurrence D_i = max(A_i, D_{i-1}) + S_i, written
    as a running maximum.  Returns (b, preprepare, prepare, commit).
    """
    n = warmup + p.n_block
    gaps = sample_exponential(p.lam, streams.arrivals, n)
    A = np.cumsum(gaps)
    S = sample_exponential(p.mu, streams.services, n)
    C = np.cumsum(S)
    D = C + np.maximum.accumulate(A - C + S)

    timeout_at = A[warmup] + p.tau
    if D[-1] <= timeout_at:
        b = p.n_block
    else:
        b = max(1, int(np.searchsorted(D[warmup:], timeout_at, side="right")))
    t_pre = float((D - A)[warmup:warmup + b].sum())

    gaps_prep, gaps_com, proc_prep, proc_com = _pbft_draws(p, streams)
    t_prepare = float(gaps_prep.sum() + proc_prep.sum())
    t_commit = float(gaps_com.sum() + proc_com.sum())
    return b, t_pre, t_prepare, t_commit


def _stat_row(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if values.size < 2:
        return mean, math.nan
    return mean, float(values.std(ddof=1) / math.sqrt(values.size))


def run_experiment(
    p: SystemParams,
    replications: int,
    master_seed: int,
    n_samples: int = 500,
    warmup: int = 1000,
    config_id: str = "run",
) -> ExperimentStats:
    """Replicate the consensus pipeline and compare with the formula delays.

    Each replication reseeds its own substreams from (master_seed, index),
    pushes `warmup` transactions through the leader's queue so the
    measured block samples the stationary regime the formulas describe,
    then seals and votes on one block.  Components that are deterministic
    formulas are reported alongside so every field of the breakdown gets a
    mean, a standard error, the matching prediction (using each
    replication's realized b) and a relative error.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")

    bs = np.empty(replications)
    pre = np.empty(replications)
    prep = np.empty(replications)
    com = np.empty(replications)
    for r in range(replications):
        streams = RandomStreams.for_replication(master_seed, r)
        bs[r], pre[r], prep[r], com[r] = _fast_replication(p, streams, warmup)

    t_local = latency.t_local_update(p.delta_d, n_samples, p.f_c)
    t_up = latency.t_upload(p.delta_m, p.w_up, p.gamma_up)
    t_global = latency.t_global_update(p.delta_m, p.n_block, p.f_c)
    dn_of_b = {b: latency.t_download(p.h, int(b), p.delta_m, p.w_dn, p.gamma_dn)
               for b in np.unique(bs)}
    dn = np.array([dn_of_b[b] for b in bs])

    sim = {
        "t_local": np.full(replications, t_local),
        "t_up": np.full(replications, t_up),
        "t_preprepare": pre,
        "t_prepare": prep,
        "t_commit": com,
        "t_dn": dn,
        "t_global": np.full(replications, t_global),
    }
    sim["t_update"] = sim["t_local"] + sim["t_global"]
    sim["t_commun"] = sim["t_up"] + sim["t_dn"]
    sim["t_consensus"] = pre + prep + com
    sim["t_total"] = sim["t_update"] + sim["t_commun"] + sim["t_consensus"]

    phase = latency.t_prepare_phase(p.f, p.lam, p.mu)
    ana = {
        "t_local": np.full(replications, t_local),
        "t_up": np.full(replications, t_up),
        "t_preprepare": bs / (p.mu - p.lam),
        "t_prepare": np.full(replications, phase),
        "t_commit": np.full(replications, phase),
        "t_dn": dn,
        "t_global": np.full(replications, t_global),
    }
    ana["t_update"] = ana["t_local"] + ana["t_global"]
    ana["t_commun"] = ana["t_up"] + ana["t_dn"]
    ana["t_consensus"] = ana["t_preprepare"] + ana["t_prepare"] + ana["t_commit"]
    ana["t_total"] = ana["t_update"] + ana["t_commun"] + ana["t_consensus"]

    mean: dict[str, float] = {}
    std_err: dict[str, float] = {}
    analytic: dict[str, float] = {}
    rel_error: dict[str, float] = {}
    for name in ALL_FIELDS:
        m, se = _stat_row(sim[name])
        mean[name] = m
        std_err[name] = se
        analytic[name] = float(ana[name].mean())
        rel_error[name] = abs(m - analytic[name]) / analytic[name]
    return ExperimentStats(
        config_id=config_id,
        replications=replications,
        mean=mean,
        std_err=None if replications < 2 else std_err,
        analytic=analytic,
        rel_error=rel_error,
    )
