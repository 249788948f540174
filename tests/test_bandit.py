import hashlib
import itertools
import math

import numpy as np
import pytest

from dpconc.bandit import (
    POLICIES,
    _STEPS,
    BanditInstance,
    PolicyState,
    _bernoulli,
    _block_sums,
    _cucb_indices,
    _escb_indices,
    cts_step,
    cucb_kl_step,
    escb_kl_step,
    lower_bound_constant,
    run_experiment,
)
from dpconc.cgf import _atoms
from dpconc.cli import write_trace
from dpconc.kinf import kinf_inverse
from dpconc.measures import DPSpec, canonicalize, kl_bernoulli
from dpconc.sums import SumSpec, region_radius

INSTANCE = BanditInstance(4, 2, [0.9, 0.6])


class FixedBetaRng:
    """Stub generator answering the per-arm beta calls with preset values."""

    def __init__(self, values):
        self.values = [float(v) for v in values]

    def beta(self, a, b):
        return self.values.pop(0)


def bernoulli_base(mean):
    return canonicalize([(0.0, 1.0 - mean), (1.0, mean)])


@pytest.mark.parametrize(
    "mean",
    [0.0, 1.0] + [k / 7 for k in range(1, 7)]
    + list(np.random.default_rng(17).random(20)),
)
def test_bernoulli_base_is_canonical(mean):
    # repr tells every float apart bit for bit (signed zeros included) and
    # shows a numpy scalar where a Python float belongs
    assert repr(_bernoulli(float(mean))) == repr(_atoms(bernoulli_base(mean)))


def random_states(instance, rng, count):
    """Policy states with unseen arms, empirical means of 0 and 1, and t = 1."""
    for i in range(count):
        counts = rng.integers(0, 40, size=instance.n)
        successes = rng.integers(0, counts + 1)
        extreme = rng.random(instance.n) < 0.3
        successes[extreme] = np.where(rng.random(extreme.sum()) < 0.5, 0, counts[extreme])
        if i % 3 == 0:
            counts[counts == 0] = 1
        t = 1 if i % 5 == 0 else int(rng.integers(2, 5000))
        yield PolicyState(counts, successes, t)


@pytest.mark.parametrize("instance", [INSTANCE, BanditInstance(9, 3, [0.8, 0.5, 0.3])])
def test_indices_match_public_solvers_bitwise(instance):
    for state in random_states(instance, np.random.default_rng(23), 40):
        counts, means = np.asarray(state.counts).tolist(), np.asarray(state.means).tolist()
        ucb = [kinf_inverse(bernoulli_base(p), math.log(state.t) / c) if c > 0 else 1.0
               for c, p in zip(counts, means)]
        assert np.array(_cucb_indices(instance, state)).tobytes() == np.array(ucb).tobytes()
        delta = min(1.0 / (state.t * math.log(state.t + 1.0) ** 2), 1.0 - 1e-12)
        radii = []
        for j in range(instance.n_blocks):
            arms = instance.block_arms(j)
            if any(counts[k] == 0 for k in arms):
                radii.append(float(instance.m))
                continue
            spec = SumSpec(DPSpec(float(counts[k]), bernoulli_base(means[k])) for k in arms)
            radii.append(region_radius(spec, delta).radius)
        assert np.array(_escb_indices(instance, state)).tobytes() == np.array(radii).tobytes()


@pytest.mark.parametrize("m", list(range(1, 41)) + [127, 128, 129, 300])
def test_block_sums_match_numpy_bitwise(m):
    # numpy sums each row pairwise, so a left-to-right sum differs from m = 8
    rng = np.random.default_rng(m)
    for _ in range(50):
        size = m * int(rng.integers(1, 5))
        x = rng.random(size) * 10.0 ** rng.uniform(-3.0, 3.0, size)
        want = np.asarray(x).reshape(-1, m).sum(axis=1)
        assert np.array(_block_sums(x.tolist(), m)).tobytes() == want.tobytes()


class TestBanditInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            BanditInstance(5, 2, [0.9, 0.6])
        with pytest.raises(ValueError):
            BanditInstance(4, 2, [0.6, 0.9])  # best block must come first
        with pytest.raises(ValueError):
            BanditInstance(4, 2, [0.9])
        with pytest.raises(ValueError):
            BanditInstance(4, 2, [0.9, 1.0])

    def test_theta_expansion(self):
        assert INSTANCE.theta.tolist() == [0.9, 0.9, 0.6, 0.6]
        assert list(INSTANCE.block_arms(1)) == [2, 3]

    def test_json_roundtrip(self):
        data = {"n": 4, "m": 2, "block_means": [0.9, 0.6]}
        inst = BanditInstance.from_dict(data)
        assert (inst.n, inst.m, inst.block_means) == (4, 2, (0.9, 0.6))

    def test_integral_sizes_only(self):
        inst = BanditInstance.from_dict({"n": 4.0, "m": 2.0, "block_means": [0.9, 0.6]})
        assert (inst.n, inst.m) == (4, 2) and isinstance(inst.n, int)
        for n, m in ((4.9, 2), (4, 2.5)):
            with pytest.raises(ValueError, match="integers"):
                BanditInstance.from_dict({"n": n, "m": m, "block_means": [0.9, 0.6]})
        with pytest.raises(ValueError, match="integers"):
            BanditInstance(4.5, 1.5, [0.9, 0.6, 0.5])  # 3 blocks of width 1.5

    @pytest.mark.parametrize("size", [1e999, -1e999, math.nan, np.float64("nan"), None, "4"])
    def test_non_numbers_as_sizes_are_value_errors(self, size):
        for n, m in ((size, 2), (4, size)):
            with pytest.raises(ValueError, match="^n and m must be integers"):
                BanditInstance.from_dict({"n": n, "m": m, "block_means": [0.9, 0.6]})


class TestCtsStep:
    def test_argmax_of_block_sums(self):
        state = PolicyState.fresh(4)
        rng = FixedBetaRng([0.9, 0.8, 0.3, 0.2])
        assert cts_step(INSTANCE, state, rng) == 0
        rng = FixedBetaRng([0.1, 0.2, 0.3, 0.2])
        assert cts_step(INSTANCE, state, rng) == 1

    def test_tie_breaks_to_lowest_index(self):
        state = PolicyState.fresh(4)
        rng = FixedBetaRng([0.5, 0.5, 0.5, 0.5])
        assert cts_step(INSTANCE, state, rng) == 0

    def test_uninformative_prior_is_uniform(self):
        # with no observations every arm samples Beta(1,1)
        rng = np.random.default_rng(0)
        state = PolicyState.fresh(4)
        picks = np.array([cts_step(INSTANCE, state, rng) for _ in range(4000)])
        freq = (picks == 0).mean()
        assert abs(freq - 0.5) < 0.05

    def test_prior_parameters_follow_counts(self):
        state = PolicyState(
            counts=np.array([4, 4, 0, 0]), successes=np.array([3, 2, 0, 0])
        )
        seen = {"a": [], "b": []}
        draws = [0.5, 0.5, 0.4, 0.4]

        class Capture:
            def beta(self, a, b):
                seen["a"].append(a)
                seen["b"].append(b)
                return draws[len(seen["a"]) - 1]

        cts_step(INSTANCE, state, Capture())
        assert seen["a"] == [4.0, 3.0, 1.0, 1.0]
        assert seen["b"] == [2.0, 3.0, 1.0, 1.0]


class TestCucbStep:
    def test_unseen_arms_get_maximal_index(self):
        state = PolicyState(
            counts=np.array([50, 50, 0, 0]),
            successes=np.array([45, 45, 0, 0]),
            t=101,
        )
        # block 1 is unexplored: index 2.0 beats any explored block
        assert cucb_kl_step(INSTANCE, state) == 1

    def test_index_matches_inverse_projection(self):
        state = PolicyState(
            counts=np.array([4, 4, 4, 4]),
            successes=np.array([2, 2, 1, 1]),
            t=3,
        )
        budget = math.log(3.0) / 4.0
        u_best = kinf_inverse(bernoulli_base(0.5), budget)
        u_worse = kinf_inverse(bernoulli_base(0.25), budget)
        want = 0 if 2 * u_best >= 2 * u_worse else 1
        assert cucb_kl_step(INSTANCE, state) == want

    def test_reference_budget_value(self):
        assert kinf_inverse(bernoulli_base(0.5), 0.25) == pytest.approx(
            0.8136356725116606, abs=1e-9
        )

    def test_large_counts_shrink_to_empirical_mean(self):
        state = PolicyState(
            counts=np.array([10**7, 10**7, 10**7, 10**7]),
            successes=np.array([9 * 10**6, 9 * 10**6, 6 * 10**6, 6 * 10**6]),
            t=10,
        )
        u = kinf_inverse(bernoulli_base(0.9), math.log(10.0) / 10**7)
        assert u == pytest.approx(0.9, abs=1e-3)
        assert cucb_kl_step(INSTANCE, state) == 0

    def test_extreme_empirical_means_handled(self):
        # means of 0 and 1 give point masses with ambient endpoints
        state = PolicyState(
            counts=np.array([3, 3, 3, 3]),
            successes=np.array([3, 3, 0, 0]),
            t=5,
        )
        assert cucb_kl_step(INSTANCE, state) == 0


class TestEscbStep:
    def test_single_arm_blocks_reduce_to_inverse_projection(self):
        inst = BanditInstance(2, 1, [0.8, 0.4])
        state = PolicyState(
            counts=np.array([6, 9]), successes=np.array([3, 6]), t=7
        )
        delta = 1.0 / (7 * math.log(8.0) ** 2)
        expect = [
            kinf_inverse(bernoulli_base(0.5), math.log(1 / delta) / 6),
            kinf_inverse(bernoulli_base(2 / 3), math.log(1 / delta) / 9),
        ]
        assert escb_kl_step(inst, state) == int(np.argmax(expect))

    def test_identical_arms_symmetric_region(self):
        # joint region over equal arms equals m * inverse at budget / (m N)
        n_obs, mean, m = 12, 0.5, 2
        delta = 0.05
        spec = SumSpec([DPSpec(float(n_obs), bernoulli_base(mean))] * m)
        radius = region_radius(spec, delta).radius
        direct = m * kinf_inverse(
            bernoulli_base(mean), math.log(1 / delta) / (m * n_obs)
        )
        assert radius == pytest.approx(direct, abs=1e-6)

    def test_zero_count_arm_forces_block(self):
        state = PolicyState(
            counts=np.array([40, 40, 40, 0]),
            successes=np.array([36, 36, 24, 0]),
            t=61,
        )
        assert escb_kl_step(INSTANCE, state) == 1

    def test_first_round_delta_clamped(self):
        state = PolicyState(
            counts=np.array([1, 1, 1, 1]), successes=np.array([1, 1, 0, 0]), t=1
        )
        assert escb_kl_step(INSTANCE, state) in (0, 1)


class TestRunExperiment:
    def test_oracle_has_zero_regret(self):
        traces = run_experiment(INSTANCE, "oracle", 50, 3, 1)
        for tr in traces:
            assert tr.cum_regret[-1] == 0.0
            assert np.all(tr.actions == 0)

    def test_worst_has_linear_regret(self):
        traces = run_experiment(INSTANCE, "worst", 50, 2, 1)
        for tr in traces:
            assert tr.cum_regret[-1] == pytest.approx(50 * 2 * 0.3)

    def test_same_seed_is_identical(self):
        a = run_experiment(INSTANCE, "cts", 100, 3, 99)
        b = run_experiment(INSTANCE, "cts", 100, 3, 99)
        for ta, tb in zip(a, b):
            assert ta.actions.tolist() == tb.actions.tolist()
            assert ta.cum_regret.tolist() == tb.cum_regret.tolist()

    def test_different_reps_differ(self):
        traces = run_experiment(INSTANCE, "cts", 200, 2, 7)
        assert traces[0].actions.tolist() != traces[1].actions.tolist()

    def test_regret_accounting(self):
        traces = run_experiment(INSTANCE, "worst", 10, 1, 0)
        tr = traces[0]
        assert np.all(np.diff(tr.cum_regret) >= 0)
        per_round = 2 * (0.9 - 0.6)
        assert tr.cum_regret.tolist() == pytest.approx(
            (per_round * np.arange(1, 11)).tolist()
        )

    def test_semi_bandit_feedback_discipline(self):
        # counts advance only for chosen blocks, m pulls per round
        inst = INSTANCE
        theta = inst.theta
        rng = np.random.default_rng(5)
        state = PolicyState.fresh(inst.n)
        chosen = np.zeros(inst.n_blocks, dtype=int)
        for t in range(60):
            before = np.array(state.counts)
            j = cts_step(inst, state, rng)
            arms = list(inst.block_arms(j))
            outcomes = rng.random(inst.m) < theta[arms]
            state.update(arms, outcomes)
            chosen[j] += 1
            delta = np.asarray(state.counts) - before
            assert delta.sum() == inst.m
            assert np.all(delta[arms] == 1)
        assert np.asarray(state.counts).sum() == 60 * inst.m
        for j in range(inst.n_blocks):
            assert np.all(np.asarray(state.counts)[list(inst.block_arms(j))] == chosen[j])

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(INSTANCE, "greedy", 10, 1, 0)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            run_experiment(INSTANCE, "cts", 0, 1, 0)
        with pytest.raises(ValueError):
            run_experiment(INSTANCE, "cts", 10, 0, 0)

    @pytest.mark.parametrize("policy", ["cts", "oracle"])
    def test_integral_floats_accepted(self, policy):
        got = run_experiment(INSTANCE, policy, 10.0, 2.0, 0)
        want = run_experiment(INSTANCE, policy, 10, 2, 0)
        assert len(got) == 2
        for g, w in zip(got, want):
            assert g.actions.tobytes() == w.actions.tobytes()
            assert g.cum_regret.tobytes() == w.cum_regret.tobytes()

    @pytest.mark.parametrize("bad", [10.5, math.nan, math.inf])
    def test_non_integral_horizon_rejected(self, bad):
        with pytest.raises(ValueError, match="T and reps must be integers"):
            run_experiment(INSTANCE, "cts", bad, 1, 0)

    @pytest.mark.parametrize("bad", [1.5, math.nan, math.inf])
    def test_non_integral_reps_rejected(self, bad):
        with pytest.raises(ValueError, match="T and reps must be integers"):
            run_experiment(INSTANCE, "cts", 10, bad, 0)

    def test_cucb_and_escb_run(self):
        for policy in ("cucb", "escb"):
            traces = run_experiment(INSTANCE, policy, 40, 1, 3)
            assert len(traces[0].actions) == 40
            # forced exploration reaches both blocks
            assert set(traces[0].actions.tolist()) == {0, 1}


# sha256 of the trace CSV of 2 reps per run.  The paper and wide pins were
# written by the array-based round loop this package had before its rounds
# moved to Python scalars; the single (m = 1) and triple (an odd m) pins by
# the loop of one scalar rng.random() per outcome
PINNED_INSTANCES = {
    "paper": (4, 2, (0.9, 0.6)),
    "wide": (16, 8, (0.9, 0.85)),
    "single": (3, 1, (0.9, 0.6, 0.3)),
    "triple": (6, 3, (0.9, 0.6)),
}
PINNED_HORIZONS = {"cts": 2000, "cucb": 200, "escb": 200, "oracle": 200, "worst": 200}
PINNED_TRACES = {
    ("paper", "cts", 0): "df78a60b317361c5508dc8e844571b24d9efabae53c3e2c27839d6597c31fec1",
    ("paper", "cts", 1): "e0099c156ce08cccdf6e7893afb0aaceb468377a71e4108d75e0278afd38cdea",
    ("paper", "cts", 7): "de56dff055fbddeb1fe6a96ceaec750b2e1725a8e97fe44fba877db3287fb7cd",
    ("paper", "cucb", 0): "4bea497e5e1fa5fe3632d1ac54f4be964620ada5dae27dd4f082aa76d2c153c1",
    ("paper", "cucb", 1): "0a48549c459ff11cac6cfd499fb61d06f32b3989743b9b14e47e447be453e0d4",
    ("paper", "cucb", 7): "e8acfe67dabc8574233c32e32f2c3c048e1fabf22a362545ccd144c461553a3b",
    ("paper", "escb", 0): "88e3f7b00d667e44e89d313c01524053896b47c944ae4f5f4dc8e08ce19eca96",
    ("paper", "escb", 1): "2ad80dec482f9558755190f89b532f564a15ef1d1f9f62e321179ae0251601e2",
    ("paper", "escb", 7): "0e27f425ae9f75c9442d5a6b9b421c0c018b2679b9a6120aa0972cf729af0191",
    ("paper", "oracle", 0): "7f19dd0d4cdd77f06555c4c0670943366d3cc9c76817eca98dd0b1f21c527a9d",
    ("paper", "oracle", 1): "7f19dd0d4cdd77f06555c4c0670943366d3cc9c76817eca98dd0b1f21c527a9d",
    ("paper", "oracle", 7): "7f19dd0d4cdd77f06555c4c0670943366d3cc9c76817eca98dd0b1f21c527a9d",
    ("paper", "worst", 0): "9da61f06acd4469299672f6abff93ffe27fa858b73c3c3a6b9fabd9854e4d814",
    ("paper", "worst", 1): "9da61f06acd4469299672f6abff93ffe27fa858b73c3c3a6b9fabd9854e4d814",
    ("paper", "worst", 7): "9da61f06acd4469299672f6abff93ffe27fa858b73c3c3a6b9fabd9854e4d814",
    ("wide", "cts", 0): "faaa9ca5a7c30148ae49d1c5d0e4554ecf9151f069cdd594f1f96562d447a189",
    ("wide", "cts", 1): "8bda7449eff9ac1b0d3881f8d1f409d4959f7da331089c80af4f216c1d2cd07f",
    ("wide", "cts", 7): "be2f6642f8646961d7e6d39fc434a51e89e489d77172061838648600b8e3f433",
    ("wide", "cucb", 0): "6de002dfb8fb1a5090097c7205e77545a2b11a0d5bb0b80f6640c8867b119aa3",
    ("wide", "cucb", 1): "fc79ab9a833ad283999df0ea5e0feb1cf564ff2e322eedefeec416cb6589fdb9",
    ("wide", "cucb", 7): "196542b61fa4ad89a03a3283e79559b83a5cb4cb948d1ae3d4f145e1d95ce34e",
    ("wide", "escb", 0): "2dfb48ccb8b1d47790d4e7a0ad397e36d905c79177ef6c7a9a6816092706d527",
    ("wide", "escb", 1): "cca505adad31b05b534fc4681c92281c445b5725af7e18b9e398dc2cebbdbece",
    ("wide", "escb", 7): "afef8c3760aa764bc7dccd67b6bbe3abc5e295441d40392753c31fa6a1f3990b",
    ("wide", "oracle", 0): "7f19dd0d4cdd77f06555c4c0670943366d3cc9c76817eca98dd0b1f21c527a9d",
    ("wide", "oracle", 1): "7f19dd0d4cdd77f06555c4c0670943366d3cc9c76817eca98dd0b1f21c527a9d",
    ("wide", "oracle", 7): "7f19dd0d4cdd77f06555c4c0670943366d3cc9c76817eca98dd0b1f21c527a9d",
    ("wide", "worst", 0): "a4181091f51ef2a7863e6a5f4b1a64ea4aa4d157cefc60823c30758cd2f47cca",
    ("wide", "worst", 1): "a4181091f51ef2a7863e6a5f4b1a64ea4aa4d157cefc60823c30758cd2f47cca",
    ("wide", "worst", 7): "a4181091f51ef2a7863e6a5f4b1a64ea4aa4d157cefc60823c30758cd2f47cca",
    ("single", "cts", 0): "2cd474539f59bb4878674d7daee11fa23dcb131b482c711a2fc4328fd53d53d2",
    ("single", "cts", 1): "b2cfc0cc1c337c7b67bf36782bad7dde5dcf9846fdaf0cbede1a372d37a478ea",
    ("single", "cts", 7): "f5eb6cc622e5aa7bb1828b3b66be915584eca98011d34ab329f628923aeb7185",
    ("single", "cucb", 0): "4247081666e196821b2b0d521d443b5f3e35c1cc9e072b0e3f43c1887f80a9c5",
    ("single", "cucb", 1): "5dfab3630c9749d850032c381aa13d695454cbf776cdea75fece81058b8279c3",
    ("single", "cucb", 7): "6bf1cea67e2c11bdb8e6a8281df3db109ff1e088156e7d8614d36b31c72c13fd",
    ("single", "escb", 0): "708fa950757ab79eb9d3043db5e73af873f80389cef9de5242ea580c3ea62f93",
    ("single", "escb", 1): "721c37960e8a13889139a826ce5646239ca91bb0a0321f76bff7abc4332291bd",
    ("single", "escb", 7): "2a1da3cad1bdb1927772c638b0d863c861c227e2d95e3ea0e30381d757a1f97a",
    ("single", "oracle", 0): "7f19dd0d4cdd77f06555c4c0670943366d3cc9c76817eca98dd0b1f21c527a9d",
    ("single", "oracle", 1): "7f19dd0d4cdd77f06555c4c0670943366d3cc9c76817eca98dd0b1f21c527a9d",
    ("single", "oracle", 7): "7f19dd0d4cdd77f06555c4c0670943366d3cc9c76817eca98dd0b1f21c527a9d",
    ("single", "worst", 0): "201163ae94dec3ec81b8bbbbfd7fcb6b72451bf8ef5ad251c75169b063f1ef0b",
    ("single", "worst", 1): "201163ae94dec3ec81b8bbbbfd7fcb6b72451bf8ef5ad251c75169b063f1ef0b",
    ("single", "worst", 7): "201163ae94dec3ec81b8bbbbfd7fcb6b72451bf8ef5ad251c75169b063f1ef0b",
    ("triple", "cts", 0): "4ab1f943a7de4099fb72afdb804873ced61f7c462422c02561b26691a1e5b510",
    ("triple", "cts", 1): "dd60e8931d82f9bb201e86eba408d71af99978b824a6dbd05440ffdcd56f9a50",
    ("triple", "cts", 7): "bd61b197cc712896552a11a21c27bc77d7f553e2e43ecffb8b9402b4adb57410",
    ("triple", "cucb", 0): "60432306ed175f9c2404dfe5ee1c4baf0623f2d6dea86af8347239b946c93ac5",
    ("triple", "cucb", 1): "68f6de2ac2a17eee8a9894b9fefbafb55a45f6477216b23ee8189fc2c56b592b",
    ("triple", "cucb", 7): "4657696c8271fb3147d475ad1abaa1303775a6a4e75a70715bd4fd9d60e8611b",
    ("triple", "escb", 0): "e99e219915d5ae934a8383d9c7858b901de0e41b09b6f86a27cdca8d87c66bfb",
    ("triple", "escb", 1): "f562df26ba5f500e3befb29d309c6c00ebde34306cee417111c0e92f1f2e1668",
    ("triple", "escb", 7): "940417b0ef5847104cdf93199149bd1341e8a0847badf9150103be33c524dd00",
    ("triple", "oracle", 0): "7f19dd0d4cdd77f06555c4c0670943366d3cc9c76817eca98dd0b1f21c527a9d",
    ("triple", "oracle", 1): "7f19dd0d4cdd77f06555c4c0670943366d3cc9c76817eca98dd0b1f21c527a9d",
    ("triple", "oracle", 7): "7f19dd0d4cdd77f06555c4c0670943366d3cc9c76817eca98dd0b1f21c527a9d",
    ("triple", "worst", 0): "62a72d517518f6021c958ee02f497cb1b8ede33002a255e50a27b39cf3738c69",
    ("triple", "worst", 1): "62a72d517518f6021c958ee02f497cb1b8ede33002a255e50a27b39cf3738c69",
    ("triple", "worst", 7): "62a72d517518f6021c958ee02f497cb1b8ede33002a255e50a27b39cf3738c69",
}


@pytest.mark.parametrize("name", PINNED_INSTANCES)
@pytest.mark.parametrize("policy", POLICIES)
def test_traces_are_pinned(name, policy, tmp_path):
    instance = BanditInstance(*PINNED_INSTANCES[name])
    for seed in (0, 1, 7):
        path = tmp_path / f"{seed}.csv"
        write_trace(path, run_experiment(instance, policy, PINNED_HORIZONS[policy], 2, seed))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == PINNED_TRACES[name, policy, seed], (name, policy, seed)


@pytest.mark.parametrize("m", [1, 2, 3, 8, 16])
def test_array_draw_is_the_scalar_draws(m):
    # run_experiment draws a round's outcomes by one rng.random(m); its
    # traces equal those of m scalar draws only because of this
    for seed in range(5):
        array, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert array.random(m).tolist() == [scalar.random() for _ in range(m)]
        assert array.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("name", PINNED_INSTANCES)
@pytest.mark.parametrize("policy", POLICIES)
def test_run_experiment_is_the_hand_stepped_state(name, policy):
    # the round loop counts its outcomes in place; stepping a state by hand
    # through PolicyState.update, one scalar draw per arm, must agree
    instance = BanditInstance(*PINNED_INSTANCES[name])
    theta, p, m = instance.theta, instance.block_means, instance.m
    T = 500 if policy == "cts" else 200
    for seed in (0, 1, 7):
        traces = run_experiment(instance, policy, T, 2, seed)
        for trace, child in zip(traces, np.random.SeedSequence(seed).spawn(2), strict=True):
            rng = np.random.default_rng(child)
            state = PolicyState.fresh(instance.n)
            actions = []
            for _ in range(T):
                j = _STEPS[policy](instance, state, rng)
                arms = instance.block_arms(j)
                state.update(arms, [rng.random() < theta[k] for k in arms])
                actions.append(j)
            assert trace.actions.tolist() == actions, (name, policy, seed)
            regret = itertools.accumulate(m * (p[0] - p[j]) for j in actions)
            assert trace.cum_regret.tolist() == list(regret), (name, policy, seed)


class TestLowerBoundConstant:
    def test_reference_value(self):
        assert lower_bound_constant(INSTANCE) == pytest.approx(
            0.963890479171441, abs=1e-9
        )

    def test_additive_over_suboptimal_blocks(self):
        inst = BanditInstance(6, 2, [0.9, 0.6, 0.6])
        assert lower_bound_constant(inst) == pytest.approx(
            2 * 0.963890479171441, abs=1e-9
        )

    def test_tied_maximum_rejected(self):
        inst = BanditInstance(4, 2, [0.9, 0.9])
        with pytest.raises(ValueError):
            lower_bound_constant(inst)


class TestOptimismProbability:
    def test_posterior_exceedance_below_kl_bound(self):
        # P(sum of per-arm posterior samples >= m p1) stays below
        # exp(-sum N_k kl(mean_k, p1)) for undersampled suboptimal arms
        rng = np.random.default_rng(17)
        n_draws = 100_000
        p1 = 0.8
        states = [
            (np.array([10, 20]), np.array([5, 11])),
            (np.array([5, 5]), np.array([2, 3])),
            (np.array([25, 8]), np.array([12, 2])),
        ]
        for counts, succ in states:
            means = succ / counts
            assert np.all(means < p1) and np.all(counts >= 5)
            a = 1.0 + succ
            b = 1.0 + counts - succ
            draws = rng.beta(a, b, size=(n_draws, 2)).sum(axis=1)
            phat = float((draws >= 2 * p1).mean())
            se = math.sqrt(phat * (1 - phat) / n_draws)
            bound = math.exp(
                -sum(n * kl_bernoulli(m, p1) for n, m in zip(counts, means))
            )
            assert phat <= bound + 3 * se


class TestCtsLearningCurve:
    def test_regret_growth_slows(self):
        traces = run_experiment(INSTANCE, "cts", 2000, 20, 11)
        first_half = np.mean([tr.cum_regret[999] for tr in traces])
        second_half = np.mean([tr.cum_regret[1999] - tr.cum_regret[999] for tr in traces])
        assert second_half < first_half

    def test_concave_trend_bootstrap(self):
        # the second half of a 10^4-round run adds less regret than the
        # first half, at 95% bootstrap confidence over replications
        from oracles import bootstrap_mean_ci

        T = 10_000
        traces = run_experiment(INSTANCE, "cts", T, 40, 13)
        gaps = np.array(
            [2 * tr.cum_regret[T // 2 - 1] - tr.cum_regret[T - 1] for tr in traces]
        )
        lo, _ = bootstrap_mean_ci(gaps, seed=2)
        assert lo > 0.0


class TestPolicyStateInvariants:
    def test_means_times_counts_integral(self):
        rng = np.random.default_rng(19)
        state = PolicyState.fresh(4)
        for _ in range(30):
            j = cts_step(INSTANCE, state, rng)
            arms = list(INSTANCE.block_arms(j))
            state.update(arms, rng.random(2) < 0.5)
        means, counts = np.asarray(state.means), np.asarray(state.counts)
        prod = means * counts
        assert np.allclose(prod, np.round(prod), atol=1e-9)
        assert np.all(means[counts == 0] == 0.0)

    def test_update_keeps_python_ints(self):
        state = PolicyState(np.array([1, 2, 0, 0]), np.array([1, 0, 0, 0]), np.int64(3))
        state.update(range(2, 4), np.array([True, False]))
        state.update([0, 3], [np.True_, 1])
        assert state.counts == [2, 2, 1, 2] and state.successes == [2, 0, 1, 1]
        assert state.t == 5
        assert all(type(v) is int for v in state.counts + state.successes + [state.t])
        with pytest.raises(ValueError):
            state.update([0, 1], [True])


class TestPolicyStateValidation:
    def test_successes_above_counts_rejected(self):
        # the index would be taken from a base with weight -0.5
        with pytest.raises(ValueError, match="successes"):
            PolicyState([4, 4, 4, 4], [6, 2, 1, 1], 3)
        with pytest.raises(ValueError, match="successes"):
            PolicyState([4, 4, 4, 4], [2, -1, 1, 1], 3)
        with pytest.raises(ValueError, match="successes"):
            PolicyState([4, -1, 4, 4], [2, 0, 1, 1], 3)

    def test_non_integral_values_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            PolicyState([4.5, 4, 4, 4], [2, 2, 1, 1], 3)
        with pytest.raises(ValueError, match="integers"):
            PolicyState(np.array([4, 4, 4, 4]), np.array([2.0, 2.5, 1.0, 1.0]), 3)
        for value in (math.nan, math.inf, "4"):
            with pytest.raises(ValueError, match="integers"):
                PolicyState([value, 4, 4, 4], [2, 2, 1, 1], 3)
        state = PolicyState(np.array([4.0, 4.0]), np.array([2, 1]), 3.0)
        assert (state.counts, state.t) == ([4, 4], 3)

    def test_round_must_be_a_positive_integer(self):
        for t in (0, -2, 2.5, math.nan):
            with pytest.raises(ValueError):
                PolicyState([4, 4, 4, 4], [2, 2, 1, 1], t)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="counts but"):
            PolicyState([4, 4, 4], [2, 2, 1, 1], 3)

    def test_state_of_another_width_rejected(self):
        state = PolicyState([4, 4, 4], [2, 2, 1], 3)
        with pytest.raises(ValueError, match="arms"):
            cts_step(INSTANCE, state, np.random.default_rng(0))
        with pytest.raises(ValueError, match="arms"):
            cucb_kl_step(INSTANCE, state)
        with pytest.raises(ValueError, match="arms"):
            escb_kl_step(INSTANCE, state)
        wide = PolicyState([4] * 6, [2] * 6, 3)
        with pytest.raises(ValueError, match="arms"):
            cucb_kl_step(INSTANCE, wide)
