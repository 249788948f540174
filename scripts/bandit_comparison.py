#!/usr/bin/env python3
"""Compare semi-bandit policies on the reference partition instance.

Runs each policy for the same horizon and replication count, prints a
summary table (mean final regret, regret per log-round, ratio to the
asymptotic lower-bound constant), and writes per-policy trace CSVs.

Example:
    python scripts/bandit_comparison.py --T 2000 --reps 20 --out-dir out/
"""

import argparse
import csv
import math
import time
from pathlib import Path

import numpy as np

from dpconc.bandit import BanditInstance, lower_bound_constant, run_experiment
from dpconc.cli import DEFAULT_SEED


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--T", type=int, default=2000)
    ap.add_argument("--reps", type=int, default=20)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--policies", nargs="+",
                    default=["cts", "cucb", "escb", "oracle", "worst"])
    ap.add_argument("--out-dir", default=None)
    args = ap.parse_args()

    instance = BanditInstance(4, 2, [0.9, 0.6])
    constant = lower_bound_constant(instance)
    logT = math.log(args.T)
    print(f"instance n={instance.n} m={instance.m} means={instance.block_means}")
    print(f"lower-bound constant: {constant:.6f}, horizon T={args.T}, reps={args.reps}")
    print(f"{'policy':>8} {'mean R_T':>12} {'R_T/log T':>12} {'ratio':>8} {'secs':>7}")

    for policy in args.policies:
        t0 = time.time()
        traces = run_experiment(instance, policy, args.T, args.reps, args.seed)
        elapsed = time.time() - t0
        finals = np.array([tr.cum_regret[-1] for tr in traces])
        per_log = finals.mean() / logT
        print(
            f"{policy:>8} {finals.mean():12.3f} {per_log:12.4f} "
            f"{per_log / constant:8.3f} {elapsed:7.2f}"
        )
        if args.out_dir:
            out = Path(args.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            with open(out / f"trace_{policy}.csv", "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["rep", "t", "action", "cum_regret"])
                for rep, tr in enumerate(traces):
                    for t in range(args.T):
                        w.writerow(
                            [rep, t + 1, int(tr.actions[t]), float(tr.cum_regret[t])]
                        )


if __name__ == "__main__":
    main()
