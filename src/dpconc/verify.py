"""Self-validation suites: oracles, duality gaps, and Monte Carlo checks.

Each suite returns a report dict with one record per check; the CLI
turns a failed suite into exit code 1.  Margins are positive slack --
how far the observed quantity sits inside its allowed band.
"""

from __future__ import annotations

import math

import numpy as np

from .cgf import _atoms, _scaled_conjugate, cgf_bound
from .kinf import kinf, tail_bound_single
from .measures import DPSpec, WeightedValues, _check_values, canonicalize, kl_discrete
from .sampler import (
    mc_log_mgf,
    moment_nested,
    qk_rk,
    sample_payoff_means,
    sample_stick_breaking,
)
from .sums import SumSpec, region_radius, sum_tail

__all__ = ["SUITES", "run_suite"]

_BERNOULLI_HALF = canonicalize([(0.0, 0.5), (1.0, 0.5)])
_DUALITY_TOL = 1e-6  # largest conjugate-route gap the duality suite allows
_SUPERADD_REL_TOL = 1e-12  # largest relative excess of Q_k over R_k
_SUPERADD_KMAX = 12  # most sets in a superadd split
_MOMENTS_CONFIGS = 20  # random configurations of the moments suite


def _check(name: str, passed: bool, margin: float, **extra) -> dict:
    rec = {"name": name, "passed": bool(passed), "margin": float(margin)}
    rec.update(extra)
    return rec


def _report(suite: str, checks: list[dict]) -> dict:
    return {"suite": suite, "passed": all(c["passed"] for c in checks), "checks": checks}


def random_measure(rng: np.random.Generator, n_atoms: int, ambient_prob: float = 0.3) -> WeightedValues:
    """Random canonical measure on [0,1] with well-separated atoms.

    With probability ``ambient_prob`` one atom is zeroed out, so the
    boundary branches of the solvers get exercised.
    """
    while True:
        vals = np.sort(rng.uniform(0.0, 1.0, n_atoms))
        if n_atoms == 1 or np.min(np.diff(vals)) > 1e-3:
            break
    w = rng.dirichlet(np.ones(n_atoms))
    if n_atoms > 1 and rng.random() < ambient_prob:
        w[rng.integers(n_atoms)] = 0.0
    return canonicalize(zip(vals, w))


def _minimize_convex(f, lo: float, hi: float) -> float:
    """Golden-section minimum of a scalar convex function on [lo, hi]."""
    gold = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - gold * (hi - lo)
    x2 = lo + gold * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(200):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - gold * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + gold * (hi - lo)
            f2 = f(x2)
        if hi - lo <= 1e-13 * max(1.0, abs(hi)):
            break
    return f(0.5 * (lo + hi))


def _top_gap(dp: DPSpec, u: float) -> float:
    """v_max - u, which a Chernoff level u must leave positive."""
    if not u < dp.base.v_max:
        raise ValueError("u must be below v_max")
    return dp.base.v_max - u


def _gamma_log_mgf(alpha: float, v_max: float, positive: list[tuple[float, float]]) -> float:
    """Log-MGF of the Gamma process with shape alpha * base at a payoff with top
    value ``v_max`` and (v, p) ``positive`` atoms: -alpha * E_base[log(1 - v)].
    Requires every payoff value <= 1 and no base mass at the value 1 exactly."""
    if v_max > 1.0:
        raise ValueError("all payoff values must be <= 1")
    if positive and positive[-1][0] == 1.0:
        raise ValueError("base mass at payoff value 1 is not allowed")
    return -alpha * math.fsum(p * math.log1p(-v) for v, p in positive)


def chernoff_minimum_gamma(dp: DPSpec, u: float) -> float:
    """min over lam in [0, 1/(v_max - u)] of the Gamma log-MGF at lam (v - u);
    v - u is formed once per call, from the base's float core."""
    hi = 1.0 / _top_gap(dp, u)
    shifted, weights = [v - u for v in dp.base.value_core], dp.base.weight_core

    def objective(lam: float) -> float:
        payoff = [min(lam * x, 1.0) for x in shifted]
        _check_values(payoff)
        return _gamma_log_mgf(dp.alpha, payoff[-1], [a for a in zip(payoff, weights) if a[1] > 0.0])

    return _minimize_convex(objective, 0.0, hi)


def min_scaled_conjugate(dp: DPSpec, u: float) -> float:
    """min over lam in [0, alpha/(v_max - u)] of the conjugate bound at payoff lam (v - u).

    The bound is alpha sup_q ((lam/alpha)(E_q[v] - u) - KL(base || q)).  Its minimum,
    -alpha kinf(u), sits at alpha times the maximizer of the dual E_base[log(1 - mu (v - u))]
    of kinf, which lies in the domain [0, 1/(v_max - u)] of that log: the interval needs
    nothing from the solvers.  The solver view of the base is built once per call.
    """
    view = _atoms(dp.base)
    return _minimize_convex(lambda lam: _scaled_conjugate(view, dp.alpha, lam, u), 0.0,
                            dp.alpha / _top_gap(dp, u))


def _ks_2samp(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Two-sided two-sample KS statistic h / n and exact p-value for samples of
    one size n, as scipy.stats.ks_2samp computes them for n <= 10,000, except
    where the sum rounds past 1 (h = 1): scipy then turns asymptotic, this clips."""
    n = len(x)
    x, y = np.sort(x), np.sort(y)
    both = np.concatenate([x, y])
    h = int(np.abs(np.searchsorted(x, both, "right") - np.searchsorted(y, both, "right")).max())
    if h == 0:
        return 0.0, 1.0
    prob = 0.0
    for k in range(n // h, -1, -1):
        term = 1.0
        for j in range(h):
            term = (n - k * h - j) * term / (n + k * h + j + 1)
        prob = term * (1.0 - prob)
    return h / n, min(max(2.0 * prob, 0.0), 1.0)


# -- suites ----------------------------------------------------------------


def suite_duality(seed: int, samples: int = 200) -> dict:
    """Scaled-conjugate minimum vs the half-space projection, two routes."""
    rng = np.random.default_rng(seed)
    gamma_tol = 1e-9
    worst_conj, worst_gamma = 0.0, 0.0
    for _ in range(samples):
        base = random_measure(rng, int(rng.integers(2, 6)))
        alpha = float(np.exp(rng.uniform(np.log(0.2), np.log(20.0))))
        dp = DPSpec(alpha, base)
        frac = rng.uniform(0.05, 0.95)
        u = base.mean + frac * (base.v_max - base.mean)
        if u <= base.mean or u >= base.v_max:
            continue
        k = kinf(base, u).value
        gap_conj = abs(min_scaled_conjugate(dp, u) + alpha * k)
        gap_gamma = abs(chernoff_minimum_gamma(dp, u) + alpha * k)
        worst_conj = max(worst_conj, gap_conj)
        worst_gamma = max(worst_gamma, gap_gamma)
    checks = [
        _check("conjugate_matches_projection", worst_conj < _DUALITY_TOL,
               _DUALITY_TOL - worst_conj, max_gap=worst_conj, cases=samples),
        _check("gamma_chernoff_matches_projection", worst_gamma < gamma_tol,
               gamma_tol - worst_gamma, max_gap=worst_gamma, cases=samples),
    ]
    return _report("duality", checks)


def suite_superadd(seed: int, samples: int = 500) -> dict:
    """Subset-split moments never exceed the merged-process moments."""
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(samples):
        k = int(rng.integers(1, _SUPERADD_KMAX + 1))
        alpha = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        beta = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        a = np.sort(rng.uniform(0.0, 1.0, k))
        q, r = qk_rk(alpha, beta, a, k)
        worst = min(worst, (r - q) / max(abs(r), 1e-300))
    # first-moment agreement on exactly representable inputs
    exact_ok = True
    for alpha, beta, a1 in [(1.0, 1.0, 0.5), (2.0, 0.5, 0.25), (4.0, 8.0, 0.75)]:
        q1, r1 = qk_rk(alpha, beta, [a1], 1)
        exact_ok = exact_ok and (q1 == r1)
    checks = [
        _check("qk_below_rk", worst >= -_SUPERADD_REL_TOL, worst + _SUPERADD_REL_TOL,
               min_relative_gap=worst, cases=samples, kmax=_SUPERADD_KMAX),
        _check("q1_equals_r1_exactly", exact_ok, 0.0),
    ]
    return _report("superadd", checks)


def suite_moments(seed: int, samples: int = 100_000) -> dict:
    """Closed-form nested moments vs simulation, and sampler agreement.

    Each configuration must sit within z standard errors, with z the
    Bonferroni bound that keeps the chance of a false alarm over all
    configurations at that of a single 3-sigma check.  A product of cuts
    that all take every atom is 1 up to rounding: it must match to 1e-12
    and stays out of the margin, which would otherwise read that floor.
    A standard error takes at least two draws.
    """
    if samples < 2:
        raise ValueError(f"the moments suite needs samples >= 2, got {samples!r}")
    from statistics import NormalDist

    z = NormalDist().inv_cdf(1.0 - 0.0027 / (2 * _MOMENTS_CONFIGS))
    rng = np.random.default_rng(seed)
    checks = []
    worst_sigma = math.inf
    ok = True
    for _ in range(_MOMENTS_CONFIGS):
        n_atoms = int(rng.integers(2, 7))
        base = random_measure(rng, n_atoms, ambient_prob=0.0)
        alpha = float(np.exp(rng.uniform(np.log(0.5), np.log(8.0))))
        dp = DPSpec(alpha, base)
        m = int(rng.integers(1, 5))
        # nested prefix sets: A_l = first c_l atoms, c nondecreasing
        cuts = np.sort(rng.integers(1, n_atoms + 1, size=m))
        masses = [min(float(base.weights[:c].sum()), 1.0) for c in cuts]
        exact = moment_nested(dp, masses)
        w = rng.dirichlet(alpha * base.weights, size=samples)
        prod = np.ones(samples)
        for c in cuts:
            prod *= w[:, :c].sum(axis=1)
        mc, se = float(prod.mean()), float(prod.std(ddof=1)) / math.sqrt(samples)
        if cuts[0] == n_atoms:
            ok = ok and abs(mc - exact) <= 1e-12
            continue
        sigma_gap = z * se - abs(mc - exact)
        worst_sigma = min(worst_sigma, sigma_gap)
        ok = ok and sigma_gap >= 0.0
    checks.append(_check("nested_moments_within_3_sigma", ok, worst_sigma, configs=_MOMENTS_CONFIGS, z=z))

    base = canonicalize([(0.0, 0.4), (0.5, 0.35), (1.0, 0.25)])
    dp = DPSpec(3.0, base)
    n_ks = 10_000
    exact_means = sample_payoff_means(dp, n_ks, rng)
    stick_means = np.array(
        [sample_stick_breaking(dp, rng, 1e-8).payoff_mean() for _ in range(n_ks)]
    )
    statistic, pvalue = _ks_2samp(exact_means, stick_means)
    checks.append(
        _check("stick_breaking_matches_exact_ks", pvalue > 0.01, pvalue - 0.01,
               statistic=statistic, pvalue=pvalue)
    )
    return _report("moments", checks)


def _tail_check(name: str, draws: np.ndarray, u: float, bound: float) -> dict:
    """The share of ``draws`` at or above ``u`` stays under ``bound`` (3 sigma)."""
    phat = float((draws >= u).mean())
    slack = bound + 3 * math.sqrt(phat * (1.0 - phat) / draws.size) - phat
    return _check(name, slack >= 0.0, slack, empirical=phat, bound=bound)


def suite_mc_bound(seed: int, samples: int = 100_000) -> dict:
    """Simulated log-MGFs and tails never exceed their bounds (3 sigma)."""
    rng = np.random.default_rng(seed)
    checks = []
    for alpha in (1.0, 5.0):
        dp = DPSpec(alpha, _BERNOULLI_HALF)
        bound = cgf_bound(dp).value
        est, se = mc_log_mgf(dp, samples, rng)
        checks.append(
            _check(f"log_mgf_bound_alpha_{alpha:g}", est <= bound + 3 * se,
                   bound + 3 * se - est, estimate=est, bound=bound, se=se)
        )
        means = sample_payoff_means(dp, samples, rng)
        for u in (0.6, 0.75, 0.9):
            checks.append(_tail_check(f"tail_bound_alpha_{alpha:g}_u_{u:g}", means, u,
                                      tail_bound_single(dp, u)))

    # paired components: empirical sum tail vs the split bound
    spec = SumSpec([DPSpec(5.0, _BERNOULLI_HALF), DPSpec(5.0, _BERNOULLI_HALF)])
    u = 1.4
    sums = sum(sample_payoff_means(c, samples, rng) for c in spec.components)
    checks.append(_tail_check("sum_tail_bound_r2", sums, u, sum_tail(spec, u).value))

    # region witnesses must sit on the divergence budget
    spec4 = SumSpec([DPSpec(4.0, _BERNOULLI_HALF), DPSpec(4.0, _BERNOULLI_HALF)])
    delta = math.exp(-2.0)
    res = region_radius(spec4, delta)
    spent = sum(
        c.alpha * kl_discrete(c.base, w) for c, w in zip(spec4.components, res.witnesses)
    )
    budget_gap = abs(spent - math.log(1.0 / delta))
    checks.append(
        _check("region_witness_budget", budget_gap < 1e-6, 1e-6 - budget_gap,
               spent=spent, budget=math.log(1.0 / delta), radius=res.radius)
    )
    return _report("mc-bound", checks)


def suite_ldp(seed: int, samples: int = 1_000_000) -> dict:
    """Loose asymptotic check: the empirical tail exponent approaches kinf.

    P(mean >= u) behaves like C alpha^(-1/2) exp(-alpha kinf), so the exponent
    s = -log(P) / alpha read at one alpha still carries the prefactor.  The
    asserted rate, (40 s_40 - 20 s_20 - log(2) / 2) / 20, takes it out from
    two concentrations that see hundreds of hits at the default samples
    (under one is expected at alpha = 80).  At the exact tails it is 0.1412,
    against kinf = 0.1438.
    """
    rng = np.random.default_rng(seed)
    u = 0.75
    k_ref = kinf(_BERNOULLI_HALF, u).value
    checks = []
    for alpha in (20.0, 40.0):
        means = sample_payoff_means(DPSpec(alpha, _BERNOULLI_HALF), samples, rng)
        hits = int((means >= u).sum())
        stat = math.inf if hits == 0 else -math.log(hits / samples) / alpha
        checks.append(_check(f"tail_exponent_alpha_{alpha:g}", True, 0.0, statistic=stat,
                             reference=k_ref, hits=hits, asserted=False))
    s20, s40 = (check["statistic"] for check in checks)
    rate = (40.0 * s40 - 20.0 * s20 - 0.5 * math.log(2.0)) / 20.0
    rel = abs(rate - k_ref) / k_ref if math.isfinite(rate) else math.inf
    checks.append(_check("tail_rate_alpha_20_40", rel <= 0.25, 0.25 - rel, statistic=rate,
                         reference=k_ref, asserted=True))
    return _report("ldp", checks)


SUITES = {
    "moments": suite_moments,
    "superadd": suite_superadd,
    "duality": suite_duality,
    "mc-bound": suite_mc_bound,
    "ldp": suite_ldp,
}


def run_suite(name: str, seed: int, samples: int | None = None) -> dict:
    """Run a named suite, with ``samples`` in place of its default sample count."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if samples is None:
        return SUITES[name](seed)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    return SUITES[name](seed, samples=samples)
