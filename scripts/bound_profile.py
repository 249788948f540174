#!/usr/bin/env python3
"""Profile the conjugate log-MGF bound against simulation over a sweep.

For a two-atom base, sweeps the concentration parameter and tabulates
the bound, a Monte Carlo estimate of the true log-MGF, and the tail
bound vs the empirical tail at a fixed level.  Emits plot-ready CSV.

Example:
    python scripts/bound_profile.py --samples 200000 > profile.csv
"""

import argparse
import sys

import numpy as np

from dpconc.cgf import cgf_bound
from dpconc.cli import DEFAULT_SEED
from dpconc.kinf import tail_bound_single
from dpconc.measures import DPSpec, canonicalize
from dpconc.sampler import mc_log_mgf, sample_payoff_means


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--level", type=float, default=0.75)
    ap.add_argument("--alphas", nargs="+", type=float,
                    default=[0.5, 1, 2, 4, 8, 16, 32, 64])
    args = ap.parse_args()

    base = canonicalize([(0.0, 0.5), (1.0, 0.5)])
    rng = np.random.default_rng(args.seed)
    w = sys.stdout
    w.write("alpha,bound,mc_log_mgf,mc_se,tail_bound,empirical_tail\n")
    for alpha in args.alphas:
        dp = DPSpec(alpha, base)
        bound = cgf_bound(dp).value
        est, se = mc_log_mgf(dp, args.samples, rng)
        tail = tail_bound_single(dp, args.level)
        means = sample_payoff_means(dp, args.samples, rng)
        emp = float((means >= args.level).mean())
        w.write(f"{alpha},{bound:.9g},{est:.9g},{se:.3g},{tail:.9g},{emp:.9g}\n")
        if est > bound + 3 * se:
            print(f"warning: estimate exceeds bound at alpha={alpha}", file=sys.stderr)


if __name__ == "__main__":
    main()
