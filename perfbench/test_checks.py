"""Tests of the benchmark itself: every check accepts the program's output
and rejects a perturbed copy of it.

    python3 -m pytest perfbench/test_checks.py -q
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import reference as ref  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from dpconc import (  # noqa: E402
    BanditInstance,
    DPSpec,
    SumSpec,
    canonicalize,
    cgf_bound,
    kinf,
    kinf_inverse,
    qk_rk,
    region_radius,
    run_experiment,
    sample_stick_breaking,
    sum_tail_bound,
    tail_bound_single,
)

BASE = canonicalize([(0.0, 0.3), (0.4, 0.0), (0.7, 0.5), (1.0, 0.2)])
AMBIENT_TOP = canonicalize([(0.1, 0.6), (0.5, 0.4), (0.9, 0.0)])
SPEC = SumSpec([DPSpec(4.0, BASE), DPSpec(0.8, AMBIENT_TOP), DPSpec(20.0, BASE)])


def plain(spec):
    return [workloads._plain(c) for c in spec.components]


def region_parts(delta=0.05):
    res = region_radius(SPEC, delta)
    comps = plain(SPEC)
    witnesses = [workloads._aligned(v, w) for (_, v, _), w in zip(comps, res.witnesses)]
    return comps, res.radius, witnesses


def test_region_accepts_program_output():
    comps, radius, witnesses = region_parts()
    assert ref.check_region(comps, 0.05, radius, witnesses) == []


def test_region_rejects_perturbed_radius():
    comps, radius, witnesses = region_parts()
    assert ref.check_region(comps, 0.05, radius * (1 + 1e-6), witnesses)


def test_region_rejects_witness_off_budget():
    comps, radius, witnesses = region_parts()
    shifted = [w.copy() for w in witnesses]
    shifted[0] = 0.9 * shifted[0] + 0.1 * comps[0][2]  # moves toward the base
    assert ref.check_region(comps, 0.05, radius, shifted)


def test_region_rejects_witness_not_summing_to_one():
    comps, radius, witnesses = region_parts()
    witnesses[1] = witnesses[1] * (1 - 1e-6)
    assert ref.check_region(comps, 0.05, radius, witnesses)


def test_sum_tail_accepts_and_rejects():
    comps = plain(SPEC)
    u = 1.9
    bound = sum_tail_bound(SPEC, u)
    assert ref.check_sum_tail(comps, u, bound) == []
    assert ref.check_sum_tail(comps, u, bound * (1 + 1e-6))
    assert ref.check_sum_tail(comps, u, 1.0 + 1e-9)


def test_index_accepts_and_rejects():
    p, budget = 0.3, 0.2
    index = kinf_inverse(canonicalize([(0.0, 1 - p), (1.0, p)]), budget)
    assert ref.check_index(p, budget, index) == []
    assert ref.check_index(p, budget, index + 1e-9)


def test_conjugate_accepts_and_rejects():
    for alpha, base in ((3.0, BASE), (0.2, AMBIENT_TOP), (40.0, AMBIENT_TOP)):
        res = cgf_bound(DPSpec(alpha, base))
        v, w = base.values, base.weights
        wv, ww = res.witness.values, res.witness.weights
        assert ref.check_conjugate(alpha, v, w, res.value, wv, ww) == []
        assert ref.check_conjugate(alpha, v, w, res.value * (1 + 1e-6), wv, ww)
        assert ref.check_conjugate(alpha, v, w, res.value, wv, ww * (1 - 1e-6))


def test_kinf_and_tail_accept_and_reject():
    u = 0.8
    value = kinf(BASE, u).value
    assert ref.check_kinf(BASE.values, BASE.weights, u, value) == []
    assert ref.check_kinf(BASE.values, BASE.weights, u, value * (1 + 1e-6))
    tail = tail_bound_single(DPSpec(5.0, BASE), u)
    assert ref.check_tail(5.0, BASE.values, BASE.weights, u, tail) == []
    assert ref.check_tail(5.0, BASE.values, BASE.weights, u, tail * (1 + 1e-6))


def test_regret_rejects_one_changed_action():
    instance = BanditInstance(4, 2, [0.9, 0.6])
    trace = run_experiment(instance, "cts", 200, 1, 5)[0]
    assert ref.check_regret(instance.block_means, 2, trace.actions, trace.cum_regret) == []
    changed = trace.actions.copy()
    changed[57] = 1 - changed[57]
    assert ref.check_regret(instance.block_means, 2, changed, trace.cum_regret)
    assert ref.check_same_actions(trace.actions, changed)
    again = run_experiment(instance, "cts", 200, 1, 5)[0]
    assert ref.check_same_actions(trace.actions, again.actions) == []


def test_choice_rejects_the_other_block():
    assert ref.check_choice("x", 1, [1.7, 1.2]) != []
    assert ref.check_choice("x", 0, [1.7, 1.2]) == []


def test_decision_states_are_checked_against_the_policies():
    import dpconc.bandit as bandit

    instance = BanditInstance(4, 2, [0.9, 0.6])
    states = workloads._decision_states(np.random.default_rng(3), bandit)
    for counts, successes, t in states:
        ucb, region = workloads._reference_indices(ref, instance, counts, successes, t)
        state = bandit.PolicyState(counts.copy(), successes.copy(), t)
        assert ref.check_choice("cucb", bandit.cucb_kl_step(instance, state), ucb) == []
        assert ref.check_choice("escb", bandit.escb_kl_step(instance, state), region) == []
        assert ref.check_choice("flipped", 1 - int(np.argmax(region)), region)


def test_draws_reject_weights_off_one_and_atoms_off_support():
    dp = DPSpec(3.0, BASE)
    draw = sample_stick_breaking(dp, np.random.default_rng(1), 1e-6)
    support = BASE.values[BASE.weights > 0]
    assert ref.check_probability(draw.values, draw.weights, support, "d") == []
    assert ref.check_probability(draw.values, draw.weights * (1 - 1e-6), support, "d")
    moved = draw.values.copy()
    moved[0] = 0.4  # the ambient atom carries no base mass
    assert ref.check_probability(moved, draw.weights, support, "d")


def test_moments_reject_shifted_draws():
    dp = DPSpec(2.0, BASE)
    v, w = BASE.values, BASE.weights
    mean = float(v @ w)
    var = float(w @ (v - mean) ** 2)
    x = np.random.default_rng(2).dirichlet(2.0 * w[w > 0], size=20_000) @ v[w > 0]
    assert ref.check_moments(x, mean, var, 2.0, "m") == []
    sd = math.sqrt(var / 3.0 / x.size)
    assert ref.check_moments(x + 10 * sd, mean, var, 2.0, "m")
    assert ref.check_moments(mean + 1.5 * (x - mean), mean, var, 2.0, "m")


def test_subset_split_accepts_and_rejects():
    masses = np.array([0.1, 0.35, 0.6, 0.9])
    q, r = qk_rk(1.3, 0.7, masses, 4)
    assert ref.check_subset_split(1.3, 0.7, masses, q, r) == []
    assert ref.check_subset_split(1.3, 0.7, masses, q * (1 + 1e-6), r)
    assert ref.check_subset_split(1.3, 0.7, masses, r * 1.01, r)


def test_suite_and_exit_checks():
    assert ref.check_suite({"suite": "s", "passed": True, "checks": []}) == []
    assert ref.check_suite({"suite": "s", "passed": False, "checks": [{"name": "a", "passed": False}]})
    assert ref.check_exit("dpconc region", 0) == []
    assert ref.check_exit("dpconc region", 1)


@pytest.mark.parametrize("delta", workloads.DELTAS)
def test_reference_region_matches_bernoulli_closed_form(delta):
    # one Bernoulli component: the region radius is the KL-UCB index
    p, alpha = 0.4, 6.0
    comps = [(alpha, np.array([0.0, 1.0]), np.array([1 - p, p]))]
    assert ref.region_radius(comps, delta) == pytest.approx(
        ref.kl_ucb(p, math.log(1 / delta) / alpha), rel=1e-12)


def test_tracer_self_time_and_ratios():
    spans = [
        ["sums.region_radius", 0.0, 10.0, -1],
        ["cgf.cgf_bound", 1.0, 4.0, 0],
        ["measures.canonicalize", 2.0, 3.0, 1],
        ["cgf.cgf_bound", 5.0, 6.0, 0],
    ]
    s = tracer.summarize(spans)
    assert s["self_s"]["sums.region_radius"] == pytest.approx(6.0)
    assert s["self_s"]["cgf.cgf_bound"] == pytest.approx(3.0)
    metrics = tracer.layer_metrics(s, {})
    assert metrics["sums.cgf_bound_per_region"] == 2.0
    assert metrics["cgf.canonicalize_per_cgf_bound"] == 0.5


def test_tracer_rebinds_and_restores():
    import dpconc.sums as sums

    original = sums.cgf_bound
    recorder = tracer.Tracer()
    recorder.install()
    try:
        assert sums.cgf_bound is not original
        region_radius_traced = sums.region_radius
        region_radius_traced(SPEC, 0.05)
    finally:
        recorder.uninstall()
    assert sums.cgf_bound is original
    s = tracer.summarize(recorder.take())
    assert s["calls"]["sums.region_radius"] == 1
    assert s["under"]["sums.cgf_bound_per_region"] == s["calls"]["cgf.cgf_bound"] > 0
