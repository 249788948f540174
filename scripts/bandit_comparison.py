#!/usr/bin/env python3
"""Compare semi-bandit policies on the reference partition instance.

Runs each policy for the same horizon and replication count, prints a
summary table (mean final regret, regret per log-round, ratio to the
asymptotic lower-bound constant), and writes per-policy trace CSVs in
the format of `dpconc bandit --trace`.

Example:
    python scripts/bandit_comparison.py --T 2000 --reps 20 --out-dir out/
"""

import argparse
import time
from pathlib import Path

from dpconc.bandit import POLICIES, BanditInstance, lower_bound_constant, run_experiment
from dpconc.cli import DEFAULT_SEED, run_summary, write_trace


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--T", type=int, default=2000)
    ap.add_argument("--reps", type=int, default=20)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--policies", nargs="+", default=POLICIES)
    ap.add_argument("--out-dir", default=None)
    args = ap.parse_args()

    instance = BanditInstance(4, 2, [0.9, 0.6])
    print(f"instance n={instance.n} m={instance.m} means={instance.block_means}")
    print(f"lower-bound constant: {lower_bound_constant(instance):.6f}, "
          f"horizon T={args.T}, reps={args.reps}")
    print(f"{'policy':>8} {'mean R_T':>12} {'R_T/log T':>12} {'ratio':>8} {'secs':>7}")

    for policy in args.policies:
        t0 = time.perf_counter()
        traces = run_experiment(instance, policy, args.T, args.reps, args.seed)
        elapsed = time.perf_counter() - t0
        s = run_summary(instance, policy, args.seed, traces)
        print(f"{policy:>8} {s['mean_RT']:12.3f} {s['RT_over_logT']:12.4f} "
              f"{s['ratio']:8.3f} {elapsed:7.2f}")
        if args.out_dir:
            out = Path(args.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            write_trace(out / f"trace_{policy}.csv", traces)


if __name__ == "__main__":
    main()
