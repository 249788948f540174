"""End-to-end acceptance checks.

Each test covers one acceptance criterion, prints a single PASS/FAIL
line (run with -s to see them all on success), and enforces the
criterion's runtime budget.  Monte Carlo checks run on fixed seeds so
the suite is deterministic.
"""

import math
import time

import numpy as np
from scipy import stats

from oracles import bootstrap_mean_ci, kinf_grid_three_atoms, kinf_grid_two_atoms
from dpconc.bandit import BanditInstance, lower_bound_constant, run_experiment
from dpconc.cgf import beta_cgf_bound, cgf_bound, cgf_bound_scaled
from dpconc.kinf import kinf, tail_bound_single
from dpconc.measures import DPSpec, canonicalize, kl_bernoulli, kl_discrete
from dpconc.sampler import (
    mc_log_mgf,
    moment_nested,
    qk_rk,
    sample_payoff_means,
    sample_stick_breaking,
)
from dpconc.sums import SumSpec, region_radius, sum_tail_bound
from dpconc.verify import chernoff_minimum_gamma, min_scaled_conjugate, random_measure

BER_HALF = canonicalize([(0.0, 0.5), (1.0, 0.5)])


def report(num, name, ok, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status} ({elapsed:.1f}s / limit {limit:.0f}s)")
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < limit, f"criterion {num} exceeded its {limit:.0f}s budget"


def test_criterion_1_kinf_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for case in range(200):
        n_atoms = 2 if case % 2 == 0 else 3
        base = random_measure(rng, n_atoms)
        frac = rng.uniform(-0.2, 0.97)
        u = base.mean + frac * (base.v_max - base.mean)
        if u >= base.v_max:
            continue
        got = kinf(base, u).value
        if n_atoms == 2:
            want = kinf_grid_two_atoms(base, u, points=10_000)
        else:
            want = kinf_grid_three_atoms(base, u, points=100_000)
        worst = max(worst, abs(got - want))
    elapsed = time.time() - start
    report(1, "half-space projection vs brute-force grids", worst < 1e-4, elapsed, 30)


def test_criterion_2_duality_suite():
    start = time.time()
    rng = np.random.default_rng(102)
    worst_conj, worst_gamma = 0.0, 0.0
    for _ in range(200):
        base = random_measure(rng, int(rng.integers(2, 6)))
        if base.v_max <= base.mean:
            continue
        alpha = float(np.exp(rng.uniform(np.log(0.2), np.log(20.0))))
        dp = DPSpec(alpha, base)
        u = base.mean + rng.uniform(0.05, 0.95) * (base.v_max - base.mean)
        k = kinf(base, u).value
        worst_conj = max(worst_conj, abs(min_scaled_conjugate(dp, u) + alpha * k))
        worst_gamma = max(worst_gamma, abs(chernoff_minimum_gamma(dp, u) + alpha * k))
    elapsed = time.time() - start
    ok = worst_conj < 1e-6 and worst_gamma < 1e-9
    report(2, "conjugate and Gamma-Chernoff duality gaps", ok, elapsed, 30)


def test_criterion_3_moment_superadditivity():
    start = time.time()
    rng = np.random.default_rng(103)
    worst_rel = math.inf
    for _ in range(500):
        k = int(rng.integers(1, 13))
        alpha = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        beta = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        masses = np.sort(rng.uniform(0.0, 1.0, k))
        q, r = qk_rk(alpha, beta, masses, k)
        worst_rel = min(worst_rel, (r - q) / max(abs(r), 1e-300))
    exact_first = all(
        qk_rk(a, b, [m], 1) == ((a + b) * m, (a + b) * m)
        for a, b, m in [(1.0, 1.0, 0.5), (2.0, 0.5, 0.25), (4.0, 8.0, 0.75), (1.0, 3.0, 0.0)]
    )
    elapsed = time.time() - start
    ok = worst_rel >= -1e-12 and exact_first
    report(3, "split moments below merged moments (k <= 12)", ok, elapsed, 60)


def test_criterion_4_moment_oracle_vs_sampler():
    start = time.time()
    rng = np.random.default_rng(104)
    samples = 100_000
    ok = True
    for _ in range(20):
        n_atoms = int(rng.integers(2, 7))
        base = random_measure(rng, n_atoms, ambient_prob=0.0)
        alpha = float(np.exp(rng.uniform(np.log(0.5), np.log(8.0))))
        m = int(rng.integers(1, 5))
        cuts = np.sort(rng.integers(1, n_atoms + 1, size=m))
        masses = [min(float(base.weights[:c].sum()), 1.0) for c in cuts]
        exact = moment_nested(DPSpec(alpha, base), masses)
        w = rng.dirichlet(alpha * base.weights, size=samples)
        prod = np.ones(samples)
        for c in cuts:
            prod *= w[:, :c].sum(axis=1)
        se = float(prod.std(ddof=1)) / math.sqrt(samples)
        ok = ok and abs(float(prod.mean()) - exact) <= 3 * se + 1e-12

    dp = DPSpec(3.0, canonicalize([(0.0, 0.4), (0.5, 0.35), (1.0, 0.25)]))
    exact_means = sample_payoff_means(dp, 10_000, rng)
    stick_means = np.array(
        [sample_stick_breaking(dp, rng, 1e-8).payoff_mean() for _ in range(10_000)]
    )
    ks = stats.ks_2samp(exact_means, stick_means)
    ok = ok and ks.pvalue > 0.01
    elapsed = time.time() - start
    report(4, "closed-form moments vs simulation, sampler agreement", ok, elapsed, 120)


def test_criterion_5_log_mgf_bound_monte_carlo():
    start = time.time()
    rng = np.random.default_rng(105)
    samples = 100_000
    ok = True
    for alpha in (1.0, 5.0):
        dp = DPSpec(alpha, BER_HALF)
        bound = cgf_bound(dp).value
        est, se = mc_log_mgf(dp, samples, rng)
        ok = ok and est <= bound + 3 * se
        means = sample_payoff_means(dp, samples, rng)
        for u in (0.6, 0.75, 0.9):
            phat = float((means >= u).mean())
            se_u = math.sqrt(phat * (1 - phat) / samples)
            ok = ok and phat <= tail_bound_single(dp, u) + 3 * se_u
    elapsed = time.time() - start
    report(5, "log-MGF and tail bounds dominate simulation", ok, elapsed, 60)


def test_criterion_6_sum_region_monte_carlo():
    start = time.time()
    rng = np.random.default_rng(106)
    samples = 100_000
    spec = SumSpec([DPSpec(5.0, BER_HALF), DPSpec(5.0, BER_HALF)])
    u = 1.4
    bound = sum_tail_bound(spec, u)
    sums = sample_payoff_means(spec.components[0], samples, rng) + sample_payoff_means(
        spec.components[1], samples, rng
    )
    phat = float((sums >= u).mean())
    se = math.sqrt(phat * (1 - phat) / samples)
    ok = phat <= bound + 3 * se

    res = region_radius(spec, math.exp(-2.0))
    spent = sum(
        c.alpha * kl_discrete(c.base, w) for c, w in zip(spec.components, res.witnesses)
    )
    ok = ok and abs(spent - 2.0) < 1e-6
    elapsed = time.time() - start
    report(6, "paired-sum tail bound and region budget", ok, elapsed, 60)


def test_criterion_7_tail_exponent_asymptotics():
    # P(mean >= u) ~ C alpha^(-1/2) exp(-alpha kinf): the two-point rate
    # (40 s_40 - 20 s_20 - log(2) / 2) / 20 of the exponents s = -log(P) / alpha
    # takes the prefactor out, at concentrations that see hundreds of hits
    start = time.time()
    rng = np.random.default_rng(0)
    u, samples = 0.75, 1_000_000
    reference = kinf(BER_HALF, u).value
    stat = {}
    for alpha in (20.0, 40.0):
        means = sample_payoff_means(DPSpec(alpha, BER_HALF), samples, rng)
        hits = int((means >= u).sum())
        stat[alpha] = math.inf if hits == 0 else -math.log(hits / samples) / alpha
    rate = (40.0 * stat[40.0] - 20.0 * stat[20.0] - 0.5 * math.log(2.0)) / 20.0
    ok = math.isfinite(rate) and abs(rate - reference) / reference <= 0.25
    elapsed = time.time() - start
    report(7, "empirical tail exponent near its limit (loose)", ok, elapsed, 120)


def test_criterion_8_beta_closed_form():
    start = time.time()
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(500):
        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(0.1, 10.0))
        lam = float(rng.uniform(0.0, 40.0))
        p = a / (a + b)
        dp = DPSpec(a + b, canonicalize([(0.0, 1.0 - p), (1.0, p)]))
        worst = max(worst, abs(beta_cgf_bound(a, b, lam) - cgf_bound_scaled(dp, lam, p)))
    pinned = beta_cgf_bound(1.0, 1.0, 2.0)
    # independently computed maximum of lam(s-1/2) - 2 kl(1/2, s) at lam = 2
    ok = worst < 1e-8 and abs(pinned - 0.22598715591349733) <= 1e-6
    uniform_exact = math.log(math.sinh(1.0))  # true centered CGF of U[0,1] at 2
    ok = ok and pinned >= uniform_exact
    elapsed = time.time() - start
    report(8, "Beta closed form vs generic solver", ok, elapsed, 60)


def test_criterion_9_bandit_experiment():
    start = time.time()
    instance = BanditInstance(4, 2, [0.9, 0.6])
    T, reps, seed = 10_000, 100, 109
    constant = lower_bound_constant(instance)

    traces = run_experiment(instance, "cts", T, reps, seed)
    finals = np.array([tr.cum_regret[-1] for tr in traces])
    ci_lo, ci_hi = bootstrap_mean_ci(finals, seed=1)
    scale = constant * math.log(T)
    within_factor_5 = (ci_hi <= 5.0 * scale) and (ci_lo >= scale / 5.0)

    worst_rt = T * instance.m * (0.9 - 0.6)  # every round on the worst block
    beats_worst = finals.mean() <= worst_rt / 10.0

    # offline optimism probabilities stay below the per-arm KL bound
    rng = np.random.default_rng(17)
    optimism_ok = True
    p1 = 0.9
    for counts, succ in [
        (np.array([10, 10]), np.array([5, 6])),
        (np.array([5, 8]), np.array([3, 4])),
        (np.array([30, 30]), np.array([20, 18])),
    ]:
        means = succ / counts
        draws = rng.beta(1.0 + succ, 1.0 + counts - succ, size=(100_000, 2)).sum(axis=1)
        phat = float((draws >= instance.m * p1).mean())
        se = math.sqrt(phat * (1 - phat) / 100_000)
        bound = math.exp(-sum(n * kl_bernoulli(m, p1) for n, m in zip(counts, means)))
        optimism_ok = optimism_ok and phat <= bound + 3 * se

    elapsed = time.time() - start
    ok = within_factor_5 and beats_worst and optimism_ok
    report(9, "posterior-sampling regret within its bracket", ok, elapsed, 300)
