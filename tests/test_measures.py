import json
import math
import pickle
import re
import warnings
from copy import deepcopy

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import measures, raw_atoms
from oracles import canonicalize_loop
from dpconc.measures import (
    DPSpec,
    WeightedValues,
    canonicalize,
    kl_bernoulli,
    kl_discrete,
)


class TestKlBernoulli:
    def test_identity_is_zero(self):
        assert kl_bernoulli(0.5, 0.5) == 0.0
        assert kl_bernoulli(0.0, 0.0) == 0.0
        assert kl_bernoulli(1.0, 1.0) == 0.0

    def test_reference_value(self):
        assert kl_bernoulli(0.5, 0.75) == pytest.approx(0.14384103622589042, abs=1e-12)

    def test_absolute_continuity_failure(self):
        assert kl_bernoulli(0.3, 0.0) == math.inf
        assert kl_bernoulli(0.3, 1.0) == math.inf
        assert kl_bernoulli(0.0, 1.0) == math.inf

    def test_degenerate_first_argument(self):
        assert kl_bernoulli(0.0, 0.25) == pytest.approx(-math.log(0.75))
        assert kl_bernoulli(1.0, 0.25) == pytest.approx(-math.log(0.25))

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            kl_bernoulli(-0.1, 0.5)
        with pytest.raises(ValueError):
            kl_bernoulli(0.5, 1.5)

    @given(
        st.integers(0, 100).map(lambda i: i / 100),
        st.integers(0, 100).map(lambda i: i / 100),
    )
    def test_nonnegative_and_zero_only_on_diagonal(self, p, q):
        v = kl_bernoulli(p, q)
        assert v >= 0.0
        if p == q:
            assert v == 0.0
        else:
            assert v > 0.0


class TestCanonicalize:
    def test_sort_and_merge(self):
        m = canonicalize([(1.0, 0.5), (0.0, 0.5), (1.0, 0.0)])
        assert m.atoms == [(0.0, 0.5), (1.0, 0.5)]

    def test_renormalization(self):
        m = canonicalize([(0.0, 2.0), (1.0, 2.0)])
        assert m.atoms == [(0.0, 0.5), (1.0, 0.5)]

    def test_ambient_atom_retained(self):
        m = canonicalize([(0.0, 0.5), (0.5, 0.0), (1.0, 0.5)])
        assert m.atoms == [(0.0, 0.5), (0.5, 0.0), (1.0, 0.5)]
        assert m.v_max == 1.0 and m.v_min == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            canonicalize([])
        with pytest.raises(ValueError):
            canonicalize([(0.0, -0.5), (1.0, 1.5)])
        with pytest.raises(ValueError):
            canonicalize([(math.nan, 1.0)])
        with pytest.raises(ValueError):
            canonicalize([(0.0, 0.0), (1.0, 0.0)])
        # the negative weight sits on a repeated value, so the merge would absorb it
        with pytest.raises(ValueError):
            canonicalize([(0.0, -0.5), (0.0, 1.0), (1.0, 0.5)])

    @pytest.mark.parametrize("weight", [math.inf, math.nan])
    def test_non_finite_weight_raises_without_warning(self, weight):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                canonicalize([(0.0, weight), (1.0, 1.0)])

    def test_total_past_float_range(self):
        # each weight is finite, their sum is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = canonicalize([(0.0, 1e308), (1.0, 1e308)])
        assert m.atoms == [(0.0, 0.5), (1.0, 0.5)]

    @given(raw_atoms)
    def test_matches_merge_loop_bitwise(self, pairs):
        m = canonicalize(pairs)
        values, weights = canonicalize_loop(pairs)
        assert m.values.tobytes() == values.tobytes()
        assert m.weights.tobytes() == weights.tobytes()

    def test_matches_merge_loop_bitwise_at_extreme_scales(self):
        # duplicates, zero weights and totals from 1e-300 to 1e300
        rng = np.random.default_rng(9)
        for _ in range(2000):
            n = int(rng.integers(1, 9))
            vals = rng.choice(np.r_[rng.normal(size=4), 0.0, -0.0], size=n)
            wts = rng.random(n) * 10.0 ** rng.integers(-300, 300)
            wts[rng.random(n) < 0.2] = 0.0
            if wts.sum() == 0.0:
                continue
            pairs = list(zip(vals, wts))
            m = canonicalize(pairs)
            values, weights = canonicalize_loop(pairs)
            assert m.values.tobytes() == values.tobytes()
            assert m.weights.tobytes() == weights.tobytes()

    @pytest.mark.parametrize("n", [2, 5, 8, 17, 64, 257])
    def test_signed_zero_keeps_first_in_input_order(self, n):
        # 0.0 and -0.0 are equal values; the merged atom takes the sign of the
        # first one given, whatever sort numpy picks for this length
        rng = np.random.default_rng(n)
        for _ in range(50):
            vals = np.r_[rng.choice([0.0, -0.0]), rng.choice([0.0, -0.0, 1.0], size=n - 1)]
            rng.shuffle(vals)
            pairs = [(v, 1.0 / n) for v in vals]
            m = canonicalize(pairs)
            values, weights = canonicalize_loop(pairs)
            assert m.values.tobytes() == values.tobytes()
            assert m.weights.tobytes() == weights.tobytes()
            first_zero = vals[vals == 0.0][0]
            assert math.copysign(1.0, m.values[0]) == math.copysign(1.0, first_zero)

    @given(raw_atoms)
    def test_canonical_invariants(self, pairs):
        m = canonicalize(pairs)
        assert np.all(np.diff(m.values) > 0)
        assert np.all(m.weights >= 0)
        assert abs(float(m.weights.sum()) - 1.0) <= 1e-12

    @given(raw_atoms)
    def test_idempotent(self, pairs):
        m = canonicalize(pairs)
        again = canonicalize(m.atoms)
        assert m == again


NAN, INF = math.nan, math.inf
HALVES = [0.25, 0.25, 0.5]


class TestWeightedValuesValidation:
    """Each rejection and its message, and the accepted edges: the first rule
    a measure breaks names the error, in the order finite values, increasing
    values, finite nonnegative weights, unit sum."""

    @pytest.mark.parametrize("values, weights", [
        ([NAN, 1.0, 2.0], HALVES),
        ([0.0, NAN, 2.0], HALVES),
        ([0.0, 1.0, NAN], HALVES),
        ([NAN], [1.0]),
        ([INF], [1.0]),
        ([-INF], [1.0]),
        ([-INF, 1.0, 2.0], HALVES),
        ([0.0, 1.0, INF], HALVES),
        ([0.0, NAN, 2.0], [-0.5, 1.0, 0.5]),  # values are checked first
    ])
    def test_non_finite_values(self, values, weights):
        with pytest.raises(ValueError, match="^values must be finite$"):
            WeightedValues(np.array(values), np.array(weights))

    @pytest.mark.parametrize("values", [[0.0, 1.0, 1.0], [0.0, 0.0, 1.0], [2.0, 1.0, 3.0],
                                        [0.0, 2.0, 1.0], [3.0, 2.0, 1.0], [0.0, -0.0, 1.0]])
    def test_values_not_increasing(self, values):
        with pytest.raises(ValueError, match="^values must be strictly increasing$"):
            WeightedValues(np.array(values), np.array(HALVES))
        # ahead of a bad weight
        with pytest.raises(ValueError, match="^values must be strictly increasing$"):
            WeightedValues(np.array(values), np.array([NAN, 0.5, 0.5]))

    @pytest.mark.parametrize("weights", [[NAN, 0.5, 0.5], [0.5, NAN, 0.5], [0.25, 0.25, NAN],
                                         [INF, 0.0, 0.0], [0.0, 0.5, INF], [-INF, 1.0, 1.0],
                                         [-0.5, 1.0, 0.5], [0.5, 0.5, -1e-300]])
    def test_bad_weights(self, weights):
        with pytest.raises(ValueError, match="^weights must be finite and nonnegative$"):
            WeightedValues(np.array([0.0, 1.0, 2.0]), np.array(weights))

    @pytest.mark.parametrize("off", [2e-12, -2e-12, 1.1e-12, 0.5, -0.25])
    def test_bad_sum(self, off):
        weights = np.array([0.5, 0.5 + off])
        got = math.fsum(weights.tolist())
        with pytest.raises(ValueError, match=f"^weights must sum to 1, got {re.escape(repr(got))}$"):
            WeightedValues(np.array([0.0, 1.0]), weights)

    def test_shape(self):
        with pytest.raises(ValueError, match="^values and weights must be 1-D"):
            WeightedValues(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="^values and weights must be 1-D"):
            WeightedValues(np.array([[0.0, 1.0]]), np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError, match="^at least one atom is required$"):
            WeightedValues(np.array([]), np.array([]))

    def test_negative_zero_weight_accepted(self):
        m = WeightedValues(np.array([0.0, 1.0]), np.array([-0.0, 1.0]))
        assert m.weights.tobytes() == np.array([-0.0, 1.0]).tobytes()

    @pytest.mark.parametrize("off", [9.99e-13, -9.99e-13, 5e-13])
    def test_sum_within_tolerance_accepted(self, off):
        weights = np.array([0.5, 0.5 + off])
        assert abs(math.fsum(weights.tolist()) - 1.0) <= 1e-12
        m = WeightedValues(np.array([0.0, 1.0]), weights)
        assert m.weights.tobytes() == weights.tobytes()

    def test_integer_inputs_accepted(self):
        m = WeightedValues(np.array([-1, 0, 3]), [0, 1, 0])
        assert m.values.dtype == m.weights.dtype == np.float64
        assert m.atoms == [(-1.0, 0.0), (0.0, 1.0), (3.0, 0.0)]

    def test_single_atom_accepted(self):
        assert WeightedValues(np.array([5.0]), np.array([1.0])).atoms == [(5.0, 1.0)]

    @given(st.lists(st.tuples(st.sampled_from([NAN, INF, -INF, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0]),
                              st.sampled_from([NAN, INF, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0,
                                               0.125, 0.0625, 1e-13])),
                    min_size=1, max_size=12),
           st.sampled_from([list, tuple, np.array]))
    def test_matches_rule_by_rule(self, pairs, kind):
        v, w = np.array(pairs).T
        if not np.isfinite(v).all():
            want = "values must be finite"
        elif not (v[1:] > v[:-1]).all():
            want = "values must be strictly increasing"
        elif (w < 0).any() or not np.isfinite(w).all():
            want = "weights must be finite and nonnegative"
        elif abs(math.fsum(w.tolist()) - 1.0) > 1e-12:
            want = f"weights must sum to 1, got {math.fsum(w.tolist())!r}"
        else:
            want = None
        try:
            WeightedValues(kind(v.tolist()), kind(w.tolist()))
            got = None
        except ValueError as e:
            got = str(e)
        assert got == want

    def test_rejection_without_warning(self):
        cases = [([NAN, 1.0], [0.5, 0.5]), ([0.0, INF], [0.5, 0.5]), ([0.0, 1.0], [INF, 0.5]),
                 ([0.0, 1.0], [NAN, 0.5]), ([1.0, 0.0], [0.5, 0.5])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for values, weights in cases:
                with pytest.raises(ValueError):
                    WeightedValues(np.array(values), np.array(weights))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            WeightedValues(np.array([1.0, 0.0]), np.array([0.5, 0.5]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            WeightedValues(np.array([0.0, 1.0]), np.array([0.5, 0.6]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            WeightedValues(np.array([]), np.array([]))

    def test_sum_rule_is_fsum_past_eight_atoms(self):
        # numpy's sum takes eight lanes from eight atoms on; the rule stays math.fsum,
        # which keeps these weights that numpy's sum puts an ulp past the edge
        weights = [0.04224133014719165, 0.04984486854326576, 0.11761127001296384,
                   0.06858232995551838, 0.0707207534924287, 0.008499701881725729,
                   0.058164573653850075, 0.30881024353433884, 0.007342242635562482,
                   0.12700754472728054, 0.0012986333911745743, 0.1398765080256994]
        assert abs(math.fsum(weights) - 1.0) <= 1e-12 < abs(float(np.sum(weights)) - 1.0)
        assert WeightedValues(range(12), weights).weight_core == tuple(weights)
        assert canonicalize(zip(range(12), weights)).weight_core == tuple(weights)

    def test_sum_overflow_is_reported_as_inf(self):
        with pytest.raises(ValueError, match="^weights must sum to 1, got inf$"):
            WeightedValues([0.0, 1.0], [1e308, 1e308])

    def test_arrays_are_read_only_copies_of_the_core(self):
        m = canonicalize([(0.0, 0.25), (0.5, 0.25), (2.0, 0.5)])
        with pytest.raises(ValueError, match="read-only"):
            m.weights[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            m.values[0] = -1.0
        assert m.values.dtype == m.weights.dtype == np.float64
        assert m.values.tolist() == list(m.value_core) == [0.0, 0.5, 2.0]
        assert m.weights.tolist() == list(m.weight_core) == [0.25, 0.25, 0.5]
        assert m.values is m.values and m.weights is m.weights

    def test_positive_part_is_read_off_the_core(self):
        m = canonicalize([(0.0, 0.0), (0.5, 0.25), (1.0, 0.0), (2.0, 0.75)])
        v, w = m.positive()
        assert v.tolist() == [0.5, 2.0] and w.tolist() == [0.25, 0.75]
        assert v.dtype == w.dtype == np.float64 and v.flags.writeable
        assert m._values is None and m._weights is None  # the lazy arrays stay unbuilt

    def test_immutable_and_picklable(self):
        m = canonicalize([(0.0, 0.25), (2.0, 0.75)])
        with pytest.raises(AttributeError):
            m.value_core = (1.0, 2.0)
        with pytest.raises(AttributeError):
            del m.weight_core
        for copy in (pickle.loads(pickle.dumps(m)), deepcopy(m)):
            assert copy == m and copy.weights.tobytes() == m.weights.tobytes()

    def test_geometry(self):
        m = canonicalize([(0.0, 0.25), (0.5, 0.25), (2.0, 0.5)])
        assert m.v_min == 0.0
        assert m.v_max == 2.0
        assert m.mean == pytest.approx(0.125 + 1.0)


class TestKlDiscrete:
    def test_identity(self):
        m = canonicalize([(0.0, 0.3), (1.0, 0.7)])
        assert kl_discrete(m, m) == 0.0

    def test_matches_bernoulli(self):
        a = canonicalize([(0.0, 0.5), (1.0, 0.5)])
        b = canonicalize([(0.0, 0.25), (1.0, 0.75)])
        assert kl_discrete(a, b) == pytest.approx(kl_bernoulli(0.5, 0.75), abs=1e-12)

    def test_disjoint_support(self):
        assert kl_discrete(canonicalize([(0.0, 1.0)]), canonicalize([(1.0, 1.0)])) == math.inf

    def test_missing_mass(self):
        a = canonicalize([(0.0, 0.5), (1.0, 0.5)])
        b = canonicalize([(0.0, 1.0), (1.0, 0.0)])
        assert kl_discrete(a, b) == math.inf

    def test_ambient_atoms_ignored_on_left(self):
        a = canonicalize([(0.0, 1.0), (1.0, 0.0)])
        b = canonicalize([(0.0, 0.5), (1.0, 0.5)])
        assert kl_discrete(a, b) == pytest.approx(math.log(2.0))

    @given(measures(), measures())
    def test_nonnegative(self, a, b):
        assert kl_discrete(a, b) >= 0.0

    @given(measures(min_atoms=2))
    def test_zero_iff_equal_positive_part(self, m):
        assert kl_discrete(m, m) <= 1e-12

    def test_positive_when_positive_parts_differ(self):
        rng = np.random.default_rng(6)
        vals = np.array([0.0, 0.5, 1.0])
        for _ in range(100):
            p = rng.dirichlet(np.ones(3))
            q = rng.dirichlet(np.ones(3))
            if np.allclose(p, q, atol=1e-9):
                continue
            assert kl_discrete(canonicalize(zip(vals, p)), canonicalize(zip(vals, q))) > 0.0

    def test_convex_in_second_argument(self):
        rng = np.random.default_rng(5)
        vals = np.array([0.0, 0.5, 1.0])
        for _ in range(200):
            p = rng.dirichlet(np.ones(3))
            q1 = rng.dirichlet(np.ones(3))
            q2 = rng.dirichlet(np.ones(3))
            nu0 = canonicalize(zip(vals, p))
            a = canonicalize(zip(vals, q1))
            b = canonicalize(zip(vals, q2))
            mid = canonicalize(zip(vals, (q1 + q2) / 2))
            lhs = kl_discrete(nu0, mid)
            rhs = (kl_discrete(nu0, a) + kl_discrete(nu0, b)) / 2
            assert lhs <= rhs + 1e-12


class TestJsonInterchange:
    def test_roundtrip_bit_exact(self):
        m = canonicalize([(0.0, 1.0), (1 / 3, 1.0), (2 / 3, 1.0)])
        blob = json.dumps(m.to_dict())
        again = WeightedValues.from_dict(json.loads(blob))
        assert m == again
        assert json.dumps(again.to_dict()) == blob

    def test_equality_with_a_non_measure_is_false(self):
        m = canonicalize([(0.0, 0.5), (1.0, 0.5)])
        assert m.__eq__(m.to_dict()) is NotImplemented
        assert m != m.to_dict()
        assert m != [(0.0, 0.5), (1.0, 0.5)]

    def test_load_renormalizes(self):
        m = WeightedValues.from_dict(
            {"atoms": [{"value": 0.0, "weight": 3.0}, {"value": 1.0, "weight": 1.0}]}
        )
        assert m.atoms == [(0.0, 0.75), (1.0, 0.25)]

    @given(raw_atoms)
    def test_echo_idempotent(self, pairs):
        m = canonicalize(pairs)
        blob = json.dumps(m.to_dict())
        again = WeightedValues.from_dict(json.loads(blob))
        assert json.dumps(again.to_dict()) == blob


class TestDPSpec:
    def test_rejects_nonpositive_alpha(self):
        base = canonicalize([(0.0, 1.0)])
        with pytest.raises(ValueError):
            DPSpec(0.0, base)
        with pytest.raises(ValueError):
            DPSpec(-1.0, base)
        with pytest.raises(ValueError):
            DPSpec(math.inf, base)
