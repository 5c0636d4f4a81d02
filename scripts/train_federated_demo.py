#!/usr/bin/env python3
"""Train a shared classifier across enterprises with one saboteur present.

Four enterprises hold separable two-class data; enterprise 2 ignores its
data and submits random weights every cycle.  Peers test each submitted
update against the accuracy threshold e0 before it may enter a block, so
the saboteur's transactions never reach aggregation and the global model
converges on the honest updates alone.  Prints a short per-cycle log and
a final summary.

Usage:
    python3 scripts/train_federated_demo.py
    python3 scripts/train_federated_demo.py --cycles 30 --seed 3
"""
import argparse
from dataclasses import replace

from fedbft.data import split_dataset, two_class_gaussian
from fedbft.domain import DEFAULT_PARAMS
from fedbft.sim import RandomStreams, run_training

ADVERSARY = 2


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0, help="master seed")
    ap.add_argument("--enterprises", type=int, default=4)
    ap.add_argument("--samples", type=int, default=200,
                    help="training samples per enterprise (default 200)")
    ap.add_argument("--features", type=int, default=300,
                    help="dimension; high enough that random weights "
                         "cannot luck past the accuracy test (default 300)")
    ap.add_argument("--separation", type=float, default=3.0)
    ap.add_argument("--cycles", type=int, default=20,
                    help="cycle cap (default 20)")
    args = ap.parse_args()

    p = replace(DEFAULT_PARAMS, e0=0.6, beta=2.0, t_max=200)
    streams = RandomStreams.from_seed(args.seed)
    enterprises = [
        split_dataset(two_class_gaussian(args.samples, args.features,
                                         args.separation, streams.data,
                                         owner=i))
        for i in range(args.enterprises)
    ]
    holdout = two_class_gaussian(2000, args.features, args.separation,
                                 streams.data)

    run = run_training(p, enterprises, holdout, streams,
                       adversaries=(ADVERSARY,), cycle_cap=args.cycles)

    print(f"{'cycle':>6} {'|dw|':>10} {'holdout_acc':>12} {'block_txs':>10}")
    for row in run.rows:
        cycle, delta, acc, _, txs = row[:5]
        print(f"{cycle:6d} {delta:10.4f} {acc:12.4f} {txs:10d}")

    excluded = sum(1 for b in run.blocks
                   if ADVERSARY not in {tx.enterprise_id for tx in b.txs})
    state = "converged" if run.converged else "hit the cycle cap"
    print(f"\n{state} after {len(run.rows)} cycles; "
          f"final holdout accuracy {run.rows[-1][2]:.4f}")
    print(f"saboteur (enterprise {ADVERSARY}) kept out of "
          f"{excluded}/{len(run.blocks)} blocks")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
