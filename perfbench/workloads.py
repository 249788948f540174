"""The three workloads: inputs made from a seed, timed units, and their checks.

``build_<name>(seed)`` imports the dpconc modules the workload calls and
builds its inputs; everything it returns is set-up.  A ``Unit`` is one short,
identical piece of program work that the harness repeats; ``check`` and
``probe`` run after the timed loop and may import the reference code.

Unit functions call the program through module attributes looked up at call
time (``sums.region_radius``), so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

DELTAS = (0.1, math.exp(-2.0), 1e-3)
SUM_SIZES = (2, 4, 8)


@dataclass
class Unit:
    """One repeatable piece of work; ``work`` counts what a rate divides."""

    name: str
    kind: str
    work: float
    run: Callable[[], object]


@dataclass
class Workload:
    units: list[Unit]
    check: Callable[[dict, dict], tuple[int, list[str]]]
    probe: Callable[[], tuple[int, int, list[str]]] = lambda: (0, 0, [])
    # kind -> (name, unit) of its per-kind figure: work per second for "1/s",
    # else seconds per unit of work
    kinds: dict[str, tuple[str, str]] = field(default_factory=dict)


def _program(name: str):
    return importlib.import_module(f"dpconc.{name}")


def _random_base(rng, n_atoms: int, ambient: int | None = None, equal: bool = False):
    """Canonical measure on [0, 1] with atoms at least 1e-3 apart.

    Atom number ``ambient`` (in ascending order), if given, gets weight 0, so
    the boundary branches of the solvers run.  With ``equal`` the other atoms
    share the mass equally instead of by a Dirichlet draw.
    """
    measures = _program("measures")
    while True:
        values = np.sort(rng.uniform(0.0, 1.0, n_atoms))
        if n_atoms == 1 or float(np.min(np.diff(values))) > 1e-3:
            break
    weights = np.ones(n_atoms) if equal else rng.dirichlet(np.ones(n_atoms))
    if ambient is not None and n_atoms > 1:
        weights[ambient] = 0.0
    return measures.canonicalize(zip(values, weights / weights.sum()))


def _plain(dp) -> tuple[float, np.ndarray, np.ndarray]:
    return dp.alpha, dp.base.values.copy(), dp.base.weights.copy()


def _aligned(values: np.ndarray, measure) -> np.ndarray:
    """Weights of ``measure`` on the atom set ``values``; all NaN if it has other atoms."""
    index = {float(x): i for i, x in enumerate(values)}
    out = np.zeros(len(values))
    for x, w in zip(measure.values, measure.weights):
        if float(x) not in index:
            return np.full(len(values), np.nan)  # fails the probability check
        out[index[float(x)]] += w
    return out


def _alpha_grid(n: int, shift: float = 0.5) -> np.ndarray:
    """n concentrations evenly spaced on a log scale over [0.5, 50].

    The grid is fixed rather than drawn, so the solvers' iteration counts, and
    with them a unit's cost, do not change from seed to seed.
    """
    return 0.5 * 100.0 ** ((np.arange(n) + shift) / n)


def _sum_spec(rng, r: int, slot: int):
    """r components with 2-10 atoms, every third with an ambient atom.

    Atom counts, concentrations and which atom is ambient follow ``slot``;
    the seed draws atom positions and weights.
    """
    measures, sums = _program("measures"), _program("sums")
    alphas = _alpha_grid(r, (slot % 3 + 0.5) / 3)
    comps = []
    for j in range(r):
        n_atoms = 2 + (slot + j) % 9
        ambient = None if j % 3 != 1 else (n_atoms - 1 if (slot + j) % 2 == 0 else 0)
        comps.append(measures.DPSpec(float(alphas[j]), _random_base(rng, n_atoms, ambient)))
    return sums.SumSpec(comps)


# -- bounds ----------------------------------------------------------------

REGIONS_PER_SIZE = 3
SUMTAILS_PER_SIZE = 2
LEVELS = (0.5, 0.35, 0.65)  # where u sits between the sum of means and of maxima
INDEX_UNITS, INDEX_BATCH = 8, 16
CONJ_UNITS, CONJ_BATCH = 8, 48


def build_bounds(seed: int) -> Workload:
    measures, kinf, cgf, sums = (_program(m) for m in ("measures", "kinf", "cgf", "sums"))
    rng = np.random.default_rng(seed)
    units: list[Unit] = []
    region_q, sumtail_q, index_q, conj_q = {}, {}, {}, {}

    for r in SUM_SIZES:
        for i in range(REGIONS_PER_SIZE):
            spec = _sum_spec(rng, r, i)
            delta = DELTAS[i % len(DELTAS)]
            name = f"region_r{r}_{i}"
            region_q[name] = (spec, delta)
            units.append(Unit(name, "region", 1, lambda s=spec, d=delta: sums.region_radius(s, d)))
        for i in range(SUMTAILS_PER_SIZE):
            spec = _sum_spec(rng, r, 4 + i)
            lo = sum(c.base.mean for c in spec.components)
            hi = sum(c.base.v_max for c in spec.components)
            u = lo + LEVELS[i % len(LEVELS)] * (hi - lo)
            name = f"sumtail_r{r}_{i}"
            sumtail_q[name] = (spec, u)
            units.append(Unit(name, "sumtail", 1, lambda s=spec, u=u: sums.sum_tail_bound(s, u)))

    for i in range(INDEX_UNITS):
        batch = []
        for _ in range(INDEX_BATCH):
            p = float(rng.uniform(0.05, 0.9))
            t = float(np.exp(rng.uniform(math.log(10.0), math.log(1e4))))
            n = int(rng.integers(10, max(11, int(t)) + 1))
            base = measures.canonicalize([(0.0, 1.0 - p), (1.0, p)])
            batch.append((p, math.log(t) / n, base))
        name = f"index_{i}"
        index_q[name] = batch
        units.append(
            Unit(name, "index", INDEX_BATCH,
                 lambda b=batch: [kinf.kinf_inverse(base, budget) for _, budget, base in b])
        )

    for i in range(CONJ_UNITS):
        alphas = _alpha_grid(CONJ_BATCH, (i + 0.5) / CONJ_UNITS)
        batch = [
            # every other base has an ambient atom, alternately at the top and bottom
            measures.DPSpec(float(alphas[k]),
                            _random_base(rng, 2 + (k + i) % 9, None if k % 2 else -(k % 4 == 0)))
            for k in range(CONJ_BATCH)
        ]
        name = f"conjugate_{i}"
        conj_q[name] = batch
        units.append(
            Unit(name, "conjugate", CONJ_BATCH, lambda b=batch: [cgf.cgf_bound(dp) for dp in b])
        )

    def check(first: dict, last: dict) -> tuple[int, list[str]]:
        import reference as ref

        ops, bad = 0, []
        for name, (spec, delta) in region_q.items():
            res = first[name]
            comps = [_plain(c) for c in spec.components]
            witnesses = [_aligned(v, w) for (_, v, _), w in zip(comps, res.witnesses)]
            bad += ref.check_region(comps, delta, res.radius, witnesses)
            ops += 1
        for name, (spec, u) in sumtail_q.items():
            bad += ref.check_sum_tail([_plain(c) for c in spec.components], u, first[name])
            ops += 1
        for name, batch in index_q.items():
            for (p, budget, _), index in zip(batch, first[name]):
                bad += ref.check_index(p, budget, index)
                ops += 1
        for name, batch in conj_q.items():
            for dp, res in zip(batch, first[name]):
                _, v, w = _plain(dp)
                bad += ref.check_conjugate(
                    dp.alpha, v, w, res.value, res.witness.values, res.witness.weights
                )
                ops += 1
        return ops, bad

    return Workload(units, check, probe=lambda: _probes(measures, kinf, sums),
                    kinds={"region": ("region_per_s", "1/s"), "sumtail": ("sumtail_per_s", "1/s"),
                           "index": ("index_per_s", "1/s"), "conjugate": ("conjugate_per_s", "1/s")})


PROBE_SCALE = 1e-12


def _probes(measures, kinf, sums) -> tuple[int, int, list[str]]:
    """Known faults, run once per run on fixed inputs.

    The first three compare a query on payoffs {0, s}, s = 1e-12, with the
    same query at s = 1; the bounds are equivariant, so the results must agree
    after dividing by s.  The fourth asks for a region with alpha = 1e-9.
    """
    import reference as ref

    s = PROBE_SCALE

    def base(scale: float):
        return measures.canonicalize([(0.0, 0.5), (scale, 0.5)])

    def spec(alpha: float, scale: float):
        return sums.SumSpec([measures.DPSpec(alpha, base(scale))] * 2)

    def equivariant(label: str, scaled: Callable[[], float], unit: Callable[[], float]):
        try:
            got, want = scaled(), unit()
        except ArithmeticError as exc:
            return f"{label}: {type(exc).__name__}: {exc}"
        if abs(got - want) > 1e-6 * abs(want):
            return f"{label}: {got!r} at scale 1e-12 vs {want!r} at scale 1"
        return None

    def tiny_alpha():
        # a budget of 2 nats at alpha = 1e-9 lets each witness keep all but
        # about exp(-1e9) of its mass on the top atom: the radius is 2 in floats
        try:
            radius = sums.region_radius(spec(1e-9, 1.0), math.exp(-2.0)).radius
        except ArithmeticError as exc:
            return f"region_radius(alpha=1e-9): {type(exc).__name__}: {exc}"
        if abs(radius - 2.0) > ref.REL_VALUE * 2.0:
            return f"region_radius(alpha=1e-9): {radius!r}, expected 2"
        return None

    results = [
        equivariant("kinf_inverse(budget=0.3)/s",
                    lambda: kinf.kinf_inverse(base(s), 0.3) / s,
                    lambda: kinf.kinf_inverse(base(1.0), 0.3)),
        equivariant("region_radius(alpha=4, delta=e^-2)/s",
                    lambda: sums.region_radius(spec(4.0, s), math.exp(-2.0)).radius / s,
                    lambda: sums.region_radius(spec(4.0, 1.0), math.exp(-2.0)).radius),
        equivariant("sum_tail_bound(alpha=5, u=1.4s)",
                    lambda: sums.sum_tail_bound(spec(5.0, s), 1.4 * s),
                    lambda: sums.sum_tail_bound(spec(5.0, 1.0), 1.4)),
        tiny_alpha(),
    ]
    notes = [r for r in results if r is not None]
    return len(results), len(notes), notes


# -- bandit ----------------------------------------------------------------

HORIZONS = {"cts": 1000, "cucb": 40, "escb": 12}
# A rep's cost hangs on its early outcomes (empirical means of exactly 0 or 1
# take cheap solver branches), so the reps' seeds are fixed: drawn from the
# workload seed they would make the timing depend on it.
REP_SEEDS = (11, 12, 13, 14)
DECISION_STATES = 6
PAPER_INSTANCE = (4, 2, (0.9, 0.6))


def build_bandit(seed: int) -> Workload:
    bandit = _program("bandit")
    rng = np.random.default_rng(seed)
    instance = bandit.BanditInstance(*PAPER_INSTANCE)
    units = []
    for policy, horizon in HORIZONS.items():
        for k, rep_seed in enumerate(REP_SEEDS):
            units.append(
                Unit(f"{policy}_{k}", policy, horizon,
                     lambda p=policy, T=horizon, s=rep_seed: bandit.run_experiment(instance, p, T, 1, s)[0])
            )
    states = _decision_states(rng, bandit)

    def check(first: dict, last: dict) -> tuple[int, list[str]]:
        import reference as ref

        ops, bad = 0, []
        for unit in units:
            trace = first[unit.name]
            bad += ref.check_regret(instance.block_means, instance.m, trace.actions, trace.cum_regret)
            bad += ref.check_same_actions(trace.actions, last[unit.name].actions)
            ops += 1
        for counts, successes, t in states:
            state = bandit.PolicyState(counts.copy(), successes.copy(), t)
            ucb, region = _reference_indices(ref, instance, counts, successes, t)
            bad += ref.check_choice(f"cucb at t={t}", bandit.cucb_kl_step(instance, state), ucb)
            bad += ref.check_choice(f"escb at t={t}", bandit.escb_kl_step(instance, state), region)
            ops += 2
        return ops, bad

    return Workload(units, check,
                    kinds={p: (f"{p}_rounds_per_s", "1/s") for p in HORIZONS})


def _decision_states(rng, bandit) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """Policy states whose two blocks have clearly different empirical means.

    The better-looking block alternates, so a policy that always picks one
    block fails; both blocks have similar counts, so every index ranks them
    the same way as the empirical means do.
    """
    n, m, _ = PAPER_INSTANCE
    out = []
    for i in range(DECISION_STATES):
        t = int(rng.integers(50, 2000))
        counts = rng.integers(t // 8, t // 4, size=n).astype(np.int64)
        hi, lo = float(rng.uniform(0.75, 0.9)), float(rng.uniform(0.35, 0.55))
        means = np.repeat([hi, lo] if i % 2 == 0 else [lo, hi], m)
        successes = np.clip(np.round(counts * means), 1, counts - 1).astype(np.int64)
        out.append((counts, successes, t))
    return out


def _reference_indices(ref, instance, counts, successes, t):
    """Per-block KL-UCB sums and region radii, from the reference solvers."""
    means = successes / counts
    ucb = [ref.kl_ucb(float(p), math.log(t) / float(c)) for p, c in zip(means, counts)]
    delta = min(1.0 / (t * math.log(t + 1.0) ** 2), 1.0 - 1e-12)
    ucb_sums, radii = [], []
    for j in range(instance.n_blocks):
        arms = list(instance.block_arms(j))
        ucb_sums.append(sum(ucb[k] for k in arms))
        comps = [
            (float(counts[k]), np.array([0.0, 1.0]), np.array([1.0 - means[k], means[k]]))
            for k in arms
        ]
        radii.append(ref.region_radius(comps, delta))
    return ucb_sums, radii


# -- montecarlo --------------------------------------------------------------


def _run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """``dpconc`` with ``argv`` through ``dpconc.cli.main``: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# Batches hold about 4,400 sticks each (a draw breaks ~alpha log(1/tol) of
# them).  Random streams and suite seeds are fixed, because they set how much
# work a unit does; the workload seed draws the base measures.  The suites run
# as `dpconc verify` commands through dpconc.cli.main, so the CLI layer (and
# the import of dpconc.cli with scipy.stats, in set-up) is measured here.
STICK_BATCHES = ((1.0, 320), (2.0, 160), (4.0, 80), (8.0, 40))
STICK_TOL = 1e-6
PAYOFF_ALPHAS = (2.0, 10.0)
PAYOFF_CALLS, PAYOFF_DRAWS = 10, 10_000
SUITES = (("superadd", 200, 101), ("mc-bound", 20_000, 102), ("duality", 6, 103), ("duality", 6, 104))
EXACT_DRAWS = 20
SUBSET_CASES = 6


def build_montecarlo(seed: int) -> Workload:
    measures, sampler, cli = (_program(m) for m in ("measures", "sampler", "cli"))
    rng = np.random.default_rng(seed)
    units = []
    draws_q = {}
    for i, (alpha, draws) in enumerate(STICK_BATCHES):
        dp = measures.DPSpec(alpha, _random_base(rng, 4))
        name = f"stick_{i}"
        draws_q[name] = dp
        units.append(
            Unit(name, "stick", draws,
                 lambda dp=dp, n=draws, s=i: [
                     sampler.sample_stick_breaking(dp, stream, STICK_TOL)
                     for stream in [np.random.default_rng(s)] for _ in range(n)
                 ])
        )
    for i, alpha in enumerate(PAYOFF_ALPHAS):
        # equal weights: the Dirichlet shapes alpha * p set the sampling cost
        dp = measures.DPSpec(alpha, _random_base(rng, 5, 2, equal=True))
        name = f"payoff_{i}"
        draws_q[name] = dp
        units.append(
            Unit(name, "payoff", PAYOFF_CALLS * PAYOFF_DRAWS,
                 lambda dp=dp, s=i: [
                     sampler.sample_payoff_means(dp, PAYOFF_DRAWS, stream)
                     for stream in [np.random.default_rng(s)] for _ in range(PAYOFF_CALLS)
                 ])
        )
    for i, (suite, samples, suite_seed) in enumerate(SUITES):
        argv = ["--precision", "--seed", str(suite_seed), "verify", suite, "--samples", str(samples)]
        units.append(Unit(f"{suite}_{i}", suite, 1, lambda a=argv: _run_cli(cli, a)))
    exact_seed = int(rng.integers(2**32))
    subset_cases = []
    for _ in range(SUBSET_CASES):
        k = int(rng.integers(1, 7))
        subset_cases.append((float(np.exp(rng.uniform(-2.0, 2.0))),
                             float(np.exp(rng.uniform(-2.0, 2.0))),
                             np.sort(rng.uniform(0.0, 1.0, k))))

    def check(first: dict, last: dict) -> tuple[int, list[str]]:
        import reference as ref

        ops, bad = 0, []
        for name, dp in draws_q.items():
            _, v, w = _plain(dp)
            mean = float(np.dot(v, w))
            var = float(np.dot(w, (v - mean) ** 2))
            if name.startswith("stick"):
                payoff = []
                for k, draw in enumerate(first[name]):
                    bad += ref.check_probability(draw.values, draw.weights, v[w > 0], f"{name} draw {k}")
                    payoff.append(float(np.dot(draw.weights, draw.values)))
                    ops += 1
            else:
                payoff = np.concatenate(first[name])
                ops += 1
            bad += ref.check_moments(payoff, mean, var, dp.alpha, name)
            exact_rng = np.random.default_rng(exact_seed)
            for k in range(EXACT_DRAWS):
                draw = sampler.sample_exact(dp, exact_rng)
                bad += ref.check_probability(draw.values, draw.weights, v[w > 0], f"{name} exact {k}")
                ops += 1
        for alpha, beta, masses in subset_cases:
            q, r = sampler.qk_rk(alpha, beta, masses, len(masses))
            bad += ref.check_subset_split(alpha, beta, masses, q, r)
            ops += 1
        for unit in units:
            if unit.kind in {suite for suite, _, _ in SUITES}:
                for run in (first, last):
                    code, out, err = run[unit.name]
                    bad += ref.check_exit(f"dpconc verify {unit.kind}", code)
                    if code in (0, 1):
                        bad += ref.check_suite(json.loads(out))
                    else:
                        bad.append(f"dpconc verify {unit.kind} stderr: {err.strip()[-300:]}")
                ops += 1
        return ops, bad

    kinds = {"stick": ("stick_draws_per_s", "1/s"), "payoff": ("payoff_means_per_s", "1/s"),
             "superadd": ("superadd_suite_s", "s"), "duality": ("duality_suite_s", "s"),
             "mc-bound": ("mcbound_suite_s", "s")}
    return Workload(units, check, kinds=kinds)


BUILDERS = {"bounds": build_bounds, "bandit": build_bandit, "montecarlo": build_montecarlo}
