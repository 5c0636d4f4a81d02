"""Random draws, leader batching, voting rounds, and the replication harness."""
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from dataclasses import replace

from fedbft import latency, sim
from fedbft.data import two_class_gaussian, split_dataset
from fedbft.domain import ALL_FIELDS, SystemParams
from fedbft.fl import GlobalModel
from fedbft.fl import verify_update
from fedbft.sim import (RandomStreams, audit_block, run_cycle,
                        run_experiment, run_leader_batching, run_pbft_round,
                        sample_exponential, _replication_draws)


# --- random draws ---

def test_exponential_rejects_bad_rate():
    with pytest.raises(ValueError, match="rate must be positive"):
        sample_exponential(0.0, np.random.default_rng(0))


def test_exponential_mean():
    rng = np.random.default_rng(123)
    draws = sample_exponential(40.0, rng, 1_000_000)
    assert draws.min() > 0
    assert draws.mean() == pytest.approx(1 / 40.0, rel=0.01)


def test_stream_substreams_are_independent():
    a = RandomStreams.from_seed(7)
    b = RandomStreams.from_seed(7)
    assert a.arrivals.random() == b.arrivals.random()
    assert a.data.random() == b.data.random()
    # distinct replications decorrelate
    c = RandomStreams.for_replication(7, 0)
    d = RandomStreams.for_replication(7, 1)
    assert c.arrivals.random() != d.arrivals.random()


@pytest.mark.parametrize("key", [0, 42, (42, 7), (3, 1, 99)])
def test_streams_are_the_first_three_spawned_children(key):
    # spawn keys children by index, so these streams match a four-way spawn
    children = np.random.SeedSequence(key).spawn(4)
    streams = RandomStreams.from_seed(key)
    for name, child in zip(("arrivals", "services", "data"), children):
        assert (getattr(streams, name).bit_generator.state
                == np.random.default_rng(child).bit_generator.state)


@pytest.mark.parametrize("key", [(0,), (42, 7)])
def test_replication_streams_are_the_first_two_spawned_children(key):
    # a chunk reads no data stream, so none is built
    children = np.random.SeedSequence(key + (3,)).spawn(3)
    streams = RandomStreams.for_replication(key, 3)
    assert streams.data is None
    for name, child in zip(("arrivals", "services"), children):
        assert (getattr(streams, name).bit_generator.state
                == np.random.default_rng(child).bit_generator.state)


# --- leader batching ---

def full_params(**kw):
    defaults = dict(lam=100.0, mu=300.0, n_block=20)
    defaults.update(kw)
    return SystemParams(**defaults)


def gaps_from(lam, n, seed):
    """The first n interarrival gaps of a rate-lam Poisson stream."""
    return sample_exponential(lam, np.random.default_rng(seed), n)


def queue_rows(p, gaps, services):
    """(rows, n) streams through the queue kernel as one block: per-row b
    and sojourn total, and the (rows, m) arrivals and departures of the
    first m = min(n, n_block) transactions, the ones the kernel serves."""
    rows, n = gaps.shape
    m = min(n, p.n_block)
    queue = sim._Queue(p, np.empty((5, m + 1, rows)))
    for column_block, values in zip(queue.columns(m), (gaps, services)):
        column_block[...] = values[:, :m].T
    queue.serve(m)
    return queue.b, queue.sojourn_total, queue.buf[0, 1:].T, queue.buf[3, 1:].T


def serve_one(p, gaps, seed):
    """One stream through the queue kernel, services drawn from ``seed``:
    b, sojourn total, and the arrivals and departures it serves."""
    services = sample_exponential(p.mu, np.random.default_rng(seed), gaps.size)
    b, total, arrivals, D = queue_rows(p, gaps[None], services[None])
    return int(b[0]), float(total[0]), arrivals[0], D[0]


def test_batching_seals_on_size():
    p = full_params(tau=1e6)
    b, total, arr, D = serve_one(p, gaps_from(p.lam, 30, 3), 4)
    assert b == 20
    assert D.shape == (20,)
    assert D[-1] <= arr[0] + p.tau
    assert np.all(D - arr > 0)
    assert total == pytest.approx((D - arr).sum(), rel=1e-12)


def test_batching_seals_on_timeout():
    p = full_params(tau=0.02)  # far less than 20 expected interarrivals
    b, total, arr, D = serve_one(p, gaps_from(p.lam, 30, 5), 6)
    assert 1 <= b < 20
    # the block holds exactly the transactions served by the timeout
    assert D[b - 1] <= arr[0] + p.tau < D[b]
    assert total == pytest.approx((D - arr)[:b].sum(), rel=1e-12)


def test_batching_timeout_waits_for_first_completion():
    # timeout so small it always beats the first service completion
    p = full_params(tau=1e-9)
    b, total, arr, D = serve_one(p, gaps_from(p.lam, 5, 7), 8)
    assert b == 1
    assert D[0] > arr[0] + p.tau
    assert total == D[0] - arr[0]


def test_batching_timeout_after_one_completion_seals_at_the_timeout():
    gaps = gaps_from(100.0, 5, 7)
    _, _, arr, departures = serve_one(full_params(tau=math.inf), gaps, 8)
    p = full_params(tau=(departures[0] + departures[1]) / 2 - arr[0])
    b, total, _, _ = serve_one(p, gaps, 8)
    assert b == 1
    assert total == departures[0] - arr[0]


def test_batching_short_stream_waits_out_finite_tau():
    # with fewer arrivals than n_block the leader keeps waiting until tau,
    # and every arrival is served by then
    p = full_params(n_block=100, tau=1e6)
    b, total, arr, D = serve_one(p, gaps_from(p.lam, 7, 9), 10)
    assert b == 7
    assert D[-1] < arr[0] + p.tau
    assert total == pytest.approx((D - arr).sum(), rel=1e-12)


def test_batching_flushes_exhausted_stream_without_timeout():
    # no timeout at all: the flush holds every served transaction
    p = full_params(n_block=100, tau=float("inf"))
    b, total, arr, D = serve_one(p, gaps_from(p.lam, 7, 9), 10)
    assert b == 7
    assert total == pytest.approx((D - arr).sum(), rel=1e-12)


def test_batching_matches_fifo_recurrence():
    # departures must satisfy D_i = max(A_i, D_{i-1}) + S_i for the exact
    # draws consumed, and run_leader_batching reads the gaps from the
    # arrivals stream and the services from the services stream
    p = full_params(n_block=50, tau=1e6)
    streams = RandomStreams.from_seed(11)
    b, sojourn_total = run_leader_batching(p, 50, streams)
    twin = RandomStreams.from_seed(11)
    gaps = sample_exponential(p.lam, twin.arrivals, 50)
    services = sample_exponential(p.mu, twin.services, 50)
    arr = np.cumsum(gaps)
    d = 0.0
    expected = np.empty(50)
    for i in range(50):
        d = max(arr[i], d) + services[i]
        expected[i] = d
    D = queue_rows(p, gaps[None], services[None])[3][0]
    np.testing.assert_allclose(D, expected, rtol=1e-12)
    assert b == 50
    assert sojourn_total == pytest.approx((expected - arr).sum(), rel=1e-12)
    for name in ("arrivals", "services"):
        assert (getattr(streams, name).bit_generator.state
                == getattr(twin, name).bit_generator.state)


@pytest.mark.parametrize("n, n_block, tau", [
    (129, 129, math.inf), (300, 300, math.inf), (300, 200, math.inf),
    (400, 400, 2.0)])
def test_one_column_batching_equals_one_whole_column(n, n_block, tau):
    # run_leader_batching draws and serves one column in blocks, and stops
    # drawing at the timeout's reach: b and the sojourn sum, in arrival
    # order, are those of one whole column, bit for bit, and the streams
    # end where n draws of each leave them
    p = full_params(n_block=n_block, tau=tau)
    streams = RandomStreams.from_seed(5)
    b, total = run_leader_batching(p, n, streams)
    twin = RandomStreams.from_seed(5)
    gaps = sample_exponential(p.lam, twin.arrivals, n)[:n_block]
    services = sample_exponential(p.mu, twin.services, n)[:n_block]
    arrivals = np.cumsum(gaps)
    expected_b, D = whole_row(p, arrivals, services)
    assert b == expected_b
    assert total == in_order((D - arrivals)[:b])
    for name in ("arrivals", "services"):
        assert (getattr(streams, name).bit_generator.state
                == getattr(twin, name).bit_generator.state)


def test_batching_input_validation():
    with pytest.raises(ValueError, match="no arrivals"):
        run_leader_batching(full_params(), 0, RandomStreams.from_seed(0))


# --- voting rounds ---

def test_pbft_phase_times_match_consumed_draws():
    p = SystemParams()
    streams = RandomStreams.from_seed(21)
    t_prepare, t_commit = run_pbft_round(p, streams)
    twin = RandomStreams.from_seed(21)
    # canonical order: prepare gaps, commit gaps, prepare and commit processing
    gaps_prep = sample_exponential(p.lam, twin.arrivals, 2 * p.f)
    gaps_com = sample_exponential(p.lam, twin.arrivals, 2 * p.f)
    proc_prep = sample_exponential(p.mu, twin.services, 2 * p.f + 1)
    proc_com = sample_exponential(p.mu, twin.services, 2 * p.f + 1)
    assert t_prepare == pytest.approx(gaps_prep.sum() + proc_prep.sum(),
                                      rel=1e-12)
    assert t_commit == pytest.approx(gaps_com.sum() + proc_com.sum(),
                                     rel=1e-12)


def test_pbft_single_peer_degenerate_case():
    p = SystemParams(f=0, n_peers=1)
    streams = RandomStreams.from_seed(3)
    t_prepare, t_commit = run_pbft_round(p, streams)
    # no votes to wait for; each phase is one processing draw
    twin = RandomStreams.from_seed(3)
    proc_prep = sample_exponential(p.mu, twin.services, 1)
    proc_com = sample_exponential(p.mu, twin.services, 1)
    assert t_prepare == pytest.approx(proc_prep.sum(), rel=1e-12)
    assert t_commit == pytest.approx(proc_com.sum(), rel=1e-12)


def test_pbft_phase_mean_tracks_formula():
    p = SystemParams()
    expected = 2 * p.f / p.lam + (2 * p.f + 1) / p.mu
    vals = np.array([
        run_pbft_round(p, RandomStreams.from_seed((4, i)))[0]
        for i in range(3000)
    ])
    assert vals.mean() == pytest.approx(expected, rel=0.03)


# --- replication path vs a one-replication-at-a-time reference ---

def whole_row(p, arrivals, services):
    """b and departures of one whole stream, with the kernel's formula
    D_i = C_i + max_{j<=i}(A_j - C_j + S_j) and seal rule."""
    C = np.cumsum(services)
    D = np.maximum.accumulate(arrivals - C + services) + C
    timeout_at = arrivals[0] + p.tau
    if D.size >= p.n_block and D[p.n_block - 1] <= timeout_at:
        return p.n_block, D
    if math.isinf(timeout_at):
        return D.size, D
    return max(int((D <= timeout_at).sum()), 1), D


def in_order(values):
    """The sum of ``values`` added one at a time, first to last."""
    total = 0.0
    for v in values:
        total += v
    return total


def reference_draws(p, replications, key):
    """(b, preprepare, prepare, commit) of each replication, one at a time.

    Replications c*R .. c*R + R - 1 are the columns of chunk c, whose
    streams give an (n_block + 4f, R) matrix of gaps then vote gaps and a
    (1 + n_block + 2(2f+1), R) matrix of initial-wait draws, services and
    processing draws, each drawn whole in row-major order.  Replication r
    reads column r; its stationary initial wait is added to its first
    service.
    """
    n, R = p.n_block, sim._CHUNK_REPS
    rows = []
    for rep in range(replications):
        r = rep % R
        if r == 0:
            streams = RandomStreams.for_replication(key, rep // R)
            arrivals_rows = sample_exponential(p.lam, streams.arrivals,
                                               (n + 4 * p.f, R))
            services_rows = sample_exponential(
                p.mu, streams.services, (1 + n + 2 * (2 * p.f + 1), R))
        gaps, votes = arrivals_rows[:n, r], arrivals_rows[n:, r]
        e, services = services_rows[0, r], services_rows[1:n + 1, r].copy()
        procs = services_rows[n + 1:, r]
        services[0] += max(0.0, (math.log(p.lam / p.mu) + p.mu * e)
                           / (p.mu - p.lam))
        arrivals = np.cumsum(gaps)
        b, D = whole_row(p, arrivals, services)
        twof = 2 * p.f
        rows.append((b, in_order(D[:b] - arrivals[:b]),
                     in_order(votes[:twof]) + in_order(procs[:twof + 1]),
                     in_order(votes[twof:]) + in_order(procs[twof + 1:])))
    return np.array(rows)


@pytest.mark.parametrize("wider", [0, 3, 50, 1000])
@pytest.mark.parametrize("tau", [10.0, 1.0, 0.2, 0.005, 1e-9, math.inf])
def test_chunked_replication_equals_one_at_a_time_reference(wider, tau):
    # the chunked replication path draws, bit for bit, what one replication
    # at a time reads from its column of its chunk's streams, across a
    # chunk boundary; at 1e-9 every block seals at its first departure,
    # and at 1.0, about n_block / lambda at the default n_block of 100,
    # full and timed-out rows share one block.  Blocks ``wider`` than 100
    # make wider rows; at 1100 with no timeout a chunk serves nine blocks
    reps = sim._CHUNK_REPS + 2
    for f, key in ((0, 3), (1, (42, 7)), (3, 11), (5, (0, 2))):
        p = SystemParams(tau=tau, f=f, n_peers=3 * f + 1,
                         n_block=100 + wider)
        np.testing.assert_array_equal(_replication_draws(p, reps, key),
                                      reference_draws(p, reps, key))


@pytest.mark.parametrize("n_block", [1, 7, 100, 300])
@pytest.mark.parametrize("tau", [1e-9, 0.005, 0.05, 0.2, 1.0, 10.0, math.inf])
def test_block_kernel_equals_whole_row_reference(n_block, tau):
    # the kernel fed in blocks of 1, 3 and 64 transactions with carried
    # state gives each stream's whole-row b and its sojourn total, summed
    # in arrival order, bit for bit
    p = SystemParams(tau=tau, n_block=n_block)
    rng = np.random.default_rng(n_block)
    for streams in (1, 7, 256):
        gaps = sample_exponential(p.lam, rng, (n_block, streams))
        services = sample_exponential(p.mu, rng, (n_block, streams))
        for width in (1, 3, 64):
            queue = sim._Queue(p, np.empty((5, width + 1, streams)))
            for lo in range(0, n_block, width):
                w = min(width, n_block - lo)
                for column_block, values in zip(queue.columns(w),
                                                (gaps, services)):
                    column_block[...] = values[lo:lo + w]
                queue.serve(w)
            for r in range(streams):
                arrivals = np.cumsum(gaps[:, r])
                b, D = whole_row(p, arrivals, services[:, r])
                assert queue.b[r] == b
                assert queue.sojourn_total[r] == in_order(D[:b]
                                                          - arrivals[:b])


def serve_chunk(queue, gaps, services, width):
    """Start ``queue`` and feed it (n, streams) gaps and services in blocks
    of ``width``, as a replication chunk does, until it reports every
    timeout passed; return the number of blocks served."""
    queue.start()
    blocks = 0
    for lo in range(0, len(gaps), width):
        w = min(width, len(gaps) - lo)
        for column_block, values in zip(queue.columns(w), (gaps, services)):
            column_block[...] = values[lo:lo + w]
        blocks += 1
        if queue.serve(w):
            break
    return blocks


@pytest.mark.parametrize("streams", [1, 7, 256])
def test_a_reused_queue_equals_a_fresh_one_per_chunk(streams):
    # one queue serves chunk after chunk, its row views extended as blocks
    # widen: gaps of 1 s put every arrival past tau = 0.2, so such a chunk
    # stops after its first block, while Poisson(100) gaps need several
    # blocks of 4 or 5; narrower blocks after wider ones leave stale values
    # in later rows
    p = SystemParams(tau=0.2, n_block=40)
    rng = np.random.default_rng(streams)
    shape = (p.n_block, streams)
    reused = sim._Queue(p, np.full((5, 17, streams), np.nan))
    for spread, width in ((False, 4), (True, 16), (False, 5), (True, 3),
                          (False, 16), (False, 4)):
        gaps = (np.ones(shape) if spread
                else sample_exponential(p.lam, rng, shape))
        services = sample_exponential(p.mu, rng, shape)
        fresh = sim._Queue(p, np.empty((5, 17, streams)))
        blocks = serve_chunk(reused, gaps, services, width)
        assert serve_chunk(fresh, gaps, services, width) == blocks
        assert blocks == 1 if spread else blocks > 1
        np.testing.assert_array_equal(reused.b, fresh.b)
        np.testing.assert_array_equal(reused.sojourn_total,
                                      fresh.sojourn_total)


@pytest.mark.parametrize("reps, rows", [
    (1, 1), (1, 7), (1, 2), (7, 1), (7, 7), (7, 8), (1024, 1), (1024, 7),
    (1024, 1025)])
def test_experiment_does_not_depend_on_block_or_chunk_size(monkeypatch, reps,
                                                           rows):
    # transactions per kernel block are outside the stream contract: these
    # caps give blocks of 1 to 844 transactions
    p = SystemParams(tau=0.2)
    expected = run_experiment(p, reps, 5)
    monkeypatch.setattr(sim, "_CHUNK_ELEMENTS", rows * sim._row_width(p))
    assert run_experiment(p, reps, 5) == expected


@pytest.mark.parametrize("tau", [1e-9, 0.02, 0.2, math.inf])
@pytest.mark.parametrize("first, cap", [(1, 1), (1, 100), (100, 1),
                                        (100, 100)])
def test_results_do_not_depend_on_first_width_or_block_cap(monkeypatch, tau,
                                                           first, cap):
    # the block widths and the block cap are work-only: from one
    # transaction per block to the whole n_block of 100 in one, for the
    # first block and for the blocks after it; at 1e-9 a chunk's reach is
    # two rows, at inf it is all of n_block
    p = SystemParams(tau=tau)
    expected = _replication_draws(p, 300, 8)
    monkeypatch.setattr(sim, "_first_width", lambda p: first)
    monkeypatch.setattr(sim, "_CHUNK_ELEMENTS", cap * sim._CHUNK_REPS)
    np.testing.assert_array_equal(_replication_draws(p, 300, 8), expected)
    for later in (1, 100):
        monkeypatch.setattr(sim, "_later_width", lambda p, later=later: later)
        np.testing.assert_array_equal(_replication_draws(p, 300, 8),
                                      expected)


@pytest.mark.parametrize("tau", [0.2, math.inf])
def test_both_scan_forms_give_the_same_draws(monkeypatch, tau):
    # the kernel scans row by row from _ROW_SCAN_STREAMS streams up and
    # down each column below; the form is work-only.  Each cut-off forces
    # one form on every queue: three chunks of replications, and single
    # columns cut short by n_block or by a timeout, in blocks of at most
    # 100 transactions, or 1 for a chunk
    p = SystemParams(tau=tau)
    monkeypatch.setattr(sim, "_CHUNK_ELEMENTS", 100)
    seen = []
    for cut in (1, 10**9):
        monkeypatch.setattr(sim, "_ROW_SCAN_STREAMS", cut)
        seen.append((_replication_draws(p, 2 * sim._CHUNK_REPS + 5, 3),
                     [run_leader_batching(replace(p, n_block=n_block), n,
                                          RandomStreams.from_seed(n))
                      for n, n_block in ((129, 129), (300, 200), (400, 400))]))
    (by_row, batches_by_row), (by_column, batches_by_column) = seen
    np.testing.assert_array_equal(by_row, by_column)
    assert batches_by_row == batches_by_column


@pytest.fixture
def drawn(monkeypatch):
    """The sizes of the draws ``sim`` makes through ``sample_exponential``."""
    sizes = []

    def counted(*args, **kwargs):
        values = sample_exponential(*args, **kwargs)
        sizes.append(values.size)
        return values

    monkeypatch.setattr(sim, "sample_exponential", counted)
    return sizes


def test_timeout_chunks_draw_little_past_their_reach(drawn):
    # at tau 0.2 a chunk's reach is 2 plus the largest of 512
    # Poisson(20) arrival counts: 37 rows at the median, 46 at the 99.9th
    # percentile.  Blocks fitted to the median draw about 38 rows a chunk
    # (896 000 values)
    run_experiment(SystemParams(tau=0.2), 10_000, 42)
    assert sum(drawn) <= 900_000


def test_a_huge_block_draws_only_what_its_timeout_reaches(drawn):
    # n_block 10^6 at tau 1: about 100 arrivals fall within a row's
    # timeout, so a chunk draws a few hundred of its 10^6 transactions and
    # holds a block of at most 128 in memory
    p = SystemParams(n_block=1_000_000, tau=1.0)
    tracemalloc.start()
    try:
        b, preprepare, _, _ = _replication_draws(p, 1, 4)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    assert sum(drawn) < 2 * 1000 * sim._CHUNK_REPS
    assert 50 < b < 200
    assert preprepare > 0


def test_a_longer_run_extends_a_shorter_one():
    p = SystemParams(tau=0.2)
    np.testing.assert_array_equal(_replication_draws(p, 700, 9)[:5],
                                  _replication_draws(p, 5, 9))


@pytest.mark.parametrize("kept", [5, 300])
def test_a_short_last_chunk_serves_only_the_streams_it_keeps(monkeypatch,
                                                             kept):
    # the last chunk draws all its columns but serves the leading 5, down
    # each column, or 300, row by row; its rows are those of a whole chunk
    p = SystemParams(tau=0.2)
    R = sim._CHUNK_REPS
    whole = _replication_draws(p, 2 * R, 9)
    served = []
    serve = sim._Queue.serve

    def counted(queue, w):
        served.append(queue.sojourn_total.size)
        return serve(queue, w)

    monkeypatch.setattr(sim._Queue, "serve", counted)
    np.testing.assert_array_equal(_replication_draws(p, R + kept, 9),
                                  whole[:R + kept])
    assert sorted(set(served)) == [kept, R]


@pytest.mark.parametrize("key", [
    0, 42, 2**32 - 1, 2**32, 2**64 + 5,
    (7,), (42, 7), (3, 1, 99), (1, 2, 3, 4), (5, 4, 3, 2, 1)])
def test_seed_kernel_matches_numpy_seeding(key):
    # chunk c reads children 0 and 1 of numpy's SeedSequence(key + (c,))
    as_tuple = (key,) if isinstance(key, int) else key
    for chunk in (0, 1, 9999):
        children = np.random.SeedSequence(as_tuple + (chunk,)).spawn(2)
        streams = RandomStreams.for_replication(key, chunk)
        for stream, child in zip((streams.arrivals, streams.services), children):
            assert (stream.bit_generator.state
                    == np.random.default_rng(child).bit_generator.state)
    p = SystemParams(tau=0.2)
    reps = sim._CHUNK_REPS + 1
    np.testing.assert_array_equal(_replication_draws(p, reps, key),
                                  reference_draws(p, reps, key))


def test_seed_kernel_rejects_what_numpy_rejects():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        run_experiment(SystemParams(), 2, (4, -1))
    for bad in (1.5, math.inf, math.nan):
        with pytest.raises(TypeError, match="seed must be integer"):
            run_experiment(SystemParams(), 2, (3, bad))


# --- the stationary start ---

def test_initial_wait_is_the_stationary_wait():
    # W0 = 0 with probability 1 - rho, else Exp(mu - lambda)
    p = SystemParams(lam=250.0)
    rho = p.lam / p.mu
    n = 1_000_000
    w0 = sim._initial_wait(
        p, sample_exponential(p.mu, np.random.default_rng(31), n))
    idle = float((w0 == 0).mean())
    assert abs(idle - (1 - rho)) <= 4 * math.sqrt(rho * (1 - rho) / n)
    assert abs(w0.mean() - rho / (p.mu - p.lam)) <= 4 * w0.std() / math.sqrt(n)
    busy = w0[w0 > 0]
    assert busy.mean() == pytest.approx(1 / (p.mu - p.lam), rel=0.01)


def empty_start_preprepare(p, replications, warmup, rng):
    """Sojourn totals of the last n_block transactions of queues that start
    empty and serve ``warmup`` transactions before them."""
    n = warmup + p.n_block
    whole_row = replace(p, n_block=n, tau=math.inf)
    totals = []
    for _ in range(replications // 1000):
        gaps = sample_exponential(p.lam, rng, (1000, n))
        services = sample_exponential(p.mu, rng, (1000, n))
        b, _, arrivals, D = queue_rows(whole_row, gaps, services)
        assert (b == n).all()
        totals.append((D - arrivals)[:, warmup:].sum(axis=1))
    return np.concatenate(totals)


def test_stationary_start_matches_exact_mean_and_long_warmup():
    # at rho = 0.83 the block's mean sojourn total is n_block / (mu - lambda)
    p = SystemParams(lam=250.0)
    stationary = _replication_draws(p, 400_000, 2026)[:, 1]
    warmed = empty_start_preprepare(p, 40_000, 1000, np.random.default_rng(2027))
    se = stationary.std(ddof=1) / math.sqrt(stationary.size)
    se_warmed = warmed.std(ddof=1) / math.sqrt(warmed.size)
    assert abs(stationary.mean() - p.n_block / (p.mu - p.lam)) <= 2 * se
    assert abs(stationary.mean() - warmed.mean()) <= 2 * math.hypot(se, se_warmed)


def test_stationary_sojourn_matches_theory():
    # one long pinned run: mean sojourn near 1/(mu - lambda)
    p = SystemParams(n_block=20_000, tau=float("inf"))
    streams = RandomStreams.from_seed(7)
    b, sojourn_total = run_leader_batching(p, 20_000, streams)
    assert b == 20_000
    assert sojourn_total / b == pytest.approx(1 / (p.mu - p.lam), rel=0.05)


# --- whole cycles ---

def make_enterprises(seed, n=4, samples=60, features=2, sep=4.0):
    streams = RandomStreams.from_seed(seed)
    return [split_dataset(two_class_gaussian(samples, features, sep,
                                             streams.data, owner=i))
            for i in range(n)], streams


def test_run_cycle_advances_the_model():
    p = SystemParams(t_max=50)
    ents, streams = make_enterprises(0)
    model = GlobalModel.initial(2)
    new_model, breakdown, block = run_cycle(p, ents, model, streams)
    assert not np.array_equal(new_model.weights, model.weights)
    assert new_model.full_gradient is not None
    assert 1 <= len(block.txs) <= p.n_block
    created = [tx.created_at for tx in block.txs]
    assert created == sorted(created)
    assert breakdown.t_dn == pytest.approx(
        (p.h + len(block.txs) * p.delta_m) / (p.w_dn * math.log2(1 + p.gamma_dn)))
    assert breakdown.t_total > 0
    assert audit_block(block, ents, p)


def test_run_cycle_t_local_is_the_slowest_block_member():
    p = SystemParams(t_max=20)
    streams = RandomStreams.from_seed(5)
    ents = [split_dataset(two_class_gaussian(n, 2, 4.0, streams.data, owner=i))
            for i, n in enumerate((50, 5000, 50, 50))]
    _, breakdown, block = run_cycle(p, ents, GlobalModel.initial(2), streams)
    assert 1 in {tx.enterprise_id for tx in block.txs}
    assert breakdown.t_local == max(tx.created_at for tx in block.txs)
    assert breakdown.t_local == pytest.approx(0.04)  # 4000 train rows


def test_pbft_preprepare_is_block_sojourn_total(monkeypatch):
    # a cycle's breakdown is the model's at the sealed block, with the
    # consensus phases taken from the batch and the voting round it ran
    seen = {}

    def recorded(name, fn):
        def wrapper(*args):
            seen[name] = fn(*args)
            return seen[name]
        monkeypatch.setattr(sim, name, wrapper)

    recorded("run_leader_batching", sim.run_leader_batching)
    recorded("run_pbft_round", sim.run_pbft_round)
    p = SystemParams(t_max=50, tau=0.02)
    ents, streams = make_enterprises(6)
    _, breakdown, block = run_cycle(p, ents, GlobalModel.initial(2), streams)
    b, sojourn_total = seen["run_leader_batching"]
    t_prepare, t_commit = seen["run_pbft_round"]
    assert len(block.txs) == b
    assert breakdown.t_preprepare == sojourn_total
    assert breakdown.t_prepare == t_prepare
    assert breakdown.t_commit == t_commit
    model = latency.t_total(p, max(len(e.train) for e in ents), b)
    assert breakdown == replace(model, t_preprepare=sojourn_total,
                                t_prepare=t_prepare, t_commit=t_commit)


def test_verification_checks_each_test_set_once(monkeypatch):
    # 4, 7 and 3001 peers share 4 test sets; each tx is checked once
    # against each test set some other peer holds, including a tx whose
    # owner id is at least twice the enterprise count
    from fedbft.domain import Block, LocalUpdateTx

    ents, streams = make_enterprises(7, samples=40)
    checked = []

    def counted(tx, test, e0):
        checked.append((tx.enterprise_id, id(test)))
        return verify_update(tx, test, e0)

    monkeypatch.setattr(sim, "verify_update", counted)
    for f in (1, 2, 1000):
        p = SystemParams(f=f, n_peers=3 * f + 1, t_max=20)
        checked.clear()
        _, _, block = run_cycle(p, ents, GlobalModel.initial(2), streams)
        tx = block.txs[0]
        stray = LocalUpdateTx(2 * len(ents) + 3, tx.weights,
                              tx.shared_gradient, tx.n_samples,
                              tx.created_at)
        assert audit_block(Block.seal([stray], p.n_block), ents, p)
        # every other peer's test set, by brute force over the peers
        for eid in (*range(len(ents)), stray.enterprise_id):
            own = eid % p.n_peers
            want = {id(ents[j % len(ents)].test)
                    for j in range(p.n_peers) if j != own}
            got = [t for e, t in checked if e == eid]
            assert sorted(got) == sorted(want), (f, eid)


def test_run_cycle_is_reproducible():
    p = SystemParams(t_max=50)
    ents, streams = make_enterprises(1)
    m1, b1, blk1 = run_cycle(p, ents, GlobalModel.initial(2), streams)
    ents2, streams2 = make_enterprises(1)
    m2, b2, blk2 = run_cycle(p, ents2, GlobalModel.initial(2), streams2)
    np.testing.assert_array_equal(m1.weights, m2.weights)
    assert b1 == b2
    assert [tx.digest for tx in blk1.txs] == [tx.digest for tx in blk2.txs]


def test_run_cycle_excludes_random_adversary():
    # high dimension: a random hyperplane scores near 1/2 on every test
    # set, far below the verification bar
    p = SystemParams(e0=0.6, t_max=100)
    ents, streams = make_enterprises(2, samples=80, features=200, sep=3.0)
    model = GlobalModel.initial(200)
    _, _, block = run_cycle(p, ents, model, streams, adversaries=(1,))
    ids = {tx.enterprise_id for tx in block.txs}
    assert 1 not in ids
    assert ids <= {0, 2, 3}
    assert audit_block(block, ents, p)


def test_run_cycle_rejecting_everything_raises():
    # an impossible bar rejects all updates
    p = SystemParams(e0=1.0, t_max=5)
    ents, streams = make_enterprises(3, samples=40, features=2, sep=0.0)
    with pytest.raises(ValueError, match="all txs rejected"):
        run_cycle(p, ents, GlobalModel.initial(2), streams)


def test_audit_flags_tampered_block():
    from fedbft.domain import Block, LocalUpdateTx

    p = SystemParams(t_max=50)
    ents, streams = make_enterprises(4)
    _, _, block = run_cycle(p, ents, GlobalModel.initial(2), streams)
    good = block.txs[0]
    w = good.weights.copy()
    w[0] += 1.0
    forged = LocalUpdateTx(good.enterprise_id, w, good.shared_gradient,
                           good.n_samples, good.created_at, good.digest)
    tampered = Block(txs=(forged,) + block.txs[1:])
    assert not audit_block(tampered, ents, p)


# --- the replication harness ---

def test_experiment_reports_every_field():
    p = SystemParams()
    stats = run_experiment(p, 5, 0)
    for table in (stats.mean, stats.std_err, stats.analytic, stats.rel_error):
        assert set(table) == set(ALL_FIELDS)
    assert stats.mean["t_consensus"] == pytest.approx(
        stats.mean["t_preprepare"] + stats.mean["t_prepare"]
        + stats.mean["t_commit"], rel=1e-12)
    assert stats.mean["t_total"] == pytest.approx(
        stats.mean["t_update"] + stats.mean["t_commun"]
        + stats.mean["t_consensus"], rel=1e-12)


def test_experiment_single_replication_has_no_std_err():
    stats = run_experiment(SystemParams(), 1, 0)
    assert set(stats.std_err) == set(ALL_FIELDS)
    assert all(math.isnan(se) for se in stats.std_err.values())


def test_experiment_is_deterministic_in_the_seed():
    a = run_experiment(SystemParams(), 20, 99)
    b = run_experiment(SystemParams(), 20, 99)
    assert a == b


# the replications that 10^6 draw, in whole chunks
DRAWN_OF_A_MILLION = -(-10**6 // sim._CHUNK_REPS) * sim._CHUNK_REPS


@pytest.mark.parametrize("reps, n_block, message", [
    (10**15, 100, "replications must be <= 1000000"),
    (10**6, 10**6, "replications x draws per replication must be <= "
                   f"1073741824, got {DRAWN_OF_A_MILLION} x 2000011; a run "
                   f"draws whole chunks of {sim._CHUNK_REPS} replications"),
])
def test_experiment_caps_reps_and_draws_before_allocating(reps, n_block,
                                                         message):
    # both once ended in a MemoryError from numpy
    with pytest.raises(ValueError, match=message):
        run_experiment(SystemParams(n_block=n_block), reps, 0)


def test_standard_error_survives_squares_that_overflow():
    # deviations near 1e200 square past the float range; the standard
    # error is still finite, and no warning is raised
    values = np.array([1.0, 3.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, se = sim._stat_row(values * 1e200, 3)
    assert mean == pytest.approx(2e200, rel=1e-15)
    assert se == pytest.approx(1e200 / math.sqrt(3), rel=1e-15)
    # the correctly rounded 1/sqrt(3)
    assert sim._stat_row(values, 3) == (2.0, math.sqrt(1 / 3))


@pytest.mark.parametrize("values, n, expected", [
    # one value shared by every replication
    (0.005, 1, 0.005),
    (0.005, 3, 0.005),
    (5e306, 10_000, 5e306),
    # equal values; four of the largest float sum past the float range
    (np.full(4, 0.001), 4, 0.001),
    (np.full(4, sys.float_info.max), 4, sys.float_info.max),
])
def test_shared_or_equal_values_report_their_value_and_no_spread(values, n,
                                                                 expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, se = sim._stat_row(values, n)
    assert mean == expected
    if n == 1:
        assert se is math.nan
    else:
        assert se == 0.0


def test_experiment_reports_shared_components_exactly():
    # at tau 10 every block fills (b = 100), so every component but the
    # three simulated phases is one value shared by all replications
    p = SystemParams(tau=10)
    stats = run_experiment(p, 2000, 0)
    model = latency.t_total(p, 500, p.n_block)
    for name in ("t_local", "t_up", "t_dn", "t_global", "t_update",
                 "t_commun"):
        assert stats.std_err[name] == 0.0
        assert stats.mean[name] == stats.analytic[name] == getattr(model, name)


def test_experiment_mean_of_a_huge_shared_component_is_finite():
    # t_local is 5e306 s: 300 copies of it once summed past the float range
    p = SystemParams(f_c=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = run_experiment(p, 300, 0)
    t_local = latency.t_local_update(p.delta_d, 500, p.f_c)
    assert stats.mean["t_local"] == stats.analytic["t_local"] == t_local
    assert stats.std_err["t_local"] == 0.0
    assert all(math.isfinite(stats.mean[n]) for n in ALL_FIELDS)


def test_experiment_converges_toward_formula():
    stats = run_experiment(SystemParams(), 2000, 0)
    assert stats.rel_error["t_consensus"] < 0.02


def test_preprepare_model_overstates_short_timeout_blocks():
    # a documented property of the paper's formula, not an acceptance
    # bound: at tau 0.01 most blocks hold one or two transactions, and a
    # timed-out block keeps only what was served by A_1 + tau, so its last
    # sojourns are cut short; b / (mu - lambda) reads 12-14 % above the
    # simulated sojourn total at seeds 0-5 (README "Studies")
    stats = run_experiment(SystemParams(tau=0.01), 20_000, 0)
    mean, model = stats.mean["t_preprepare"], stats.analytic["t_preprepare"]
    assert -0.17 < (mean - model) / model < -0.10
    assert model - mean > 10 * stats.std_err["t_preprepare"]
