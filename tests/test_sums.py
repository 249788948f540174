import functools
import json
import math

import numpy as np
import pytest

from dpconc.cli import main
from dpconc.kinf import kinf, kinf_inverse, tail_bound_single
from dpconc.measures import DPSpec, WeightedValues, canonicalize, kl_discrete
from dpconc.sums import SumSpec, optimal_split, region_radius, sum_tail, sum_tail_bound
from dpconc.verify import random_measure

BER_HALF = canonicalize([(0.0, 0.5), (1.0, 0.5)])


def region_grid_r2(spec, delta, points=3000):
    """2-D brute force over per-component levels (u1, u2)."""
    budget = -math.log(delta)
    best = -math.inf
    c1, c2 = spec.components
    g1 = np.linspace(c1.base.mean, c1.base.v_max - 1e-9, points)
    k1 = np.array([c1.alpha * kinf(c1.base, u).value for u in g1])
    g2 = np.linspace(c2.base.mean, c2.base.v_max - 1e-9, points)
    k2 = np.array([c2.alpha * kinf(c2.base, u).value for u in g2])
    for u1, v1 in zip(g1, k1):
        left = budget - v1
        if left < 0:
            continue
        feasible = k2 <= left
        if feasible.any():
            best = max(best, u1 + float(g2[feasible].max()))
    return best


class TestRegionRadius:
    def test_single_component_equals_inverse(self):
        spec = SumSpec([DPSpec(4.0, BER_HALF)])
        res = region_radius(spec, math.exp(-1.0))
        assert res.radius == pytest.approx(kinf_inverse(BER_HALF, 0.25), abs=1e-8)
        assert not res.unconstrained

    def test_delta_near_one_returns_means(self):
        spec = SumSpec([DPSpec(4.0, BER_HALF), DPSpec(2.0, BER_HALF)])
        res = region_radius(spec, 1.0 - 1e-9)
        assert res.radius == pytest.approx(1.0, abs=1e-3)
        assert res.radius >= 1.0 - 1e-12

    def test_two_identical_components(self):
        spec = SumSpec([DPSpec(4.0, BER_HALF), DPSpec(4.0, BER_HALF)])
        res = region_radius(spec, math.exp(-2.0))
        assert res.radius == pytest.approx(2 * kinf_inverse(BER_HALF, 0.25), abs=1e-8)

    def test_grid_cross_check(self):
        rng = np.random.default_rng(21)
        for _ in range(3):
            spec = SumSpec(
                [
                    DPSpec(float(rng.uniform(1.0, 6.0)), random_measure(rng, 3, 0.0)),
                    DPSpec(float(rng.uniform(1.0, 6.0)), random_measure(rng, 2, 0.0)),
                ]
            )
            delta = float(rng.uniform(0.05, 0.5))
            res = region_radius(spec, delta)
            grid = region_grid_r2(spec, delta)
            assert grid <= res.radius + 1e-9  # grid is feasible, radius is the sup
            assert res.radius - grid <= 2e-3  # and the grid gets close

    def test_witness_contract(self):
        rng = np.random.default_rng(22)
        for _ in range(8):
            r = int(rng.integers(1, 4))
            spec = SumSpec(
                [
                    DPSpec(
                        float(np.exp(rng.uniform(np.log(0.5), np.log(10.0)))),
                        random_measure(rng, int(rng.integers(2, 5))),
                    )
                    for _ in range(r)
                ]
            )
            delta = float(rng.uniform(0.02, 0.8))
            res = region_radius(spec, delta)
            spent = sum(
                c.alpha * kl_discrete(c.base, w)
                for c, w in zip(spec.components, res.witnesses)
            )
            assert spent <= -math.log(delta) + 1e-6
            assert sum(w.mean for w in res.witnesses) == pytest.approx(
                res.radius, abs=1e-6
            )

    def test_degenerate_components_unconstrained(self):
        spec = SumSpec(
            [
                DPSpec(1.0, canonicalize([(0.4, 1.0)])),
                DPSpec(2.0, canonicalize([(0.0, 0.0), (0.7, 1.0)])),
            ]
        )
        res = region_radius(spec, 0.5)
        assert res.unconstrained
        assert res.lambda_star == 0.0
        assert res.radius == pytest.approx(1.1)
        spent = sum(
            c.alpha * kl_discrete(c.base, w)
            for c, w in zip(spec.components, res.witnesses)
        )
        assert spent == 0.0

    @pytest.mark.parametrize("atoms, top", [
        ([(0.0, 1e-14), (0.5, 1.0)], 0.5),  # the mean rounds to the top
        ([(0.9999999999999999, 1.0), (1.0, 5e-13)], 1.0),  # the mean passes it
    ])
    def test_mean_rounded_to_top_gives_top(self, atoms, top):
        spec = SumSpec([DPSpec(2.0, canonicalize(atoms))] * 2)
        res = region_radius(spec, 0.05)
        assert res.radius == 2.0 * top
        assert res.lambda_star == 0.0
        assert not res.unconstrained

    def test_monotone_in_budget(self):
        spec = SumSpec([DPSpec(3.0, BER_HALF), DPSpec(1.0, BER_HALF)])
        radii = [
            region_radius(spec, delta).radius for delta in (0.5, 0.2, 0.05, 0.01)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(radii, radii[1:]))

    def test_delta_domain(self):
        spec = SumSpec([DPSpec(1.0, BER_HALF)])
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                region_radius(spec, bad)

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            SumSpec([])


class TestSumTailBound:
    def test_below_means_is_one(self):
        spec = SumSpec([DPSpec(10.0, BER_HALF), DPSpec(10.0, BER_HALF)])
        assert sum_tail_bound(spec, 1.0) == 1.0
        assert sum_tail_bound(spec, 0.3) == 1.0

    def test_two_identical_components_reference(self):
        spec = SumSpec([DPSpec(10.0, BER_HALF), DPSpec(10.0, BER_HALF)])
        got = sum_tail_bound(spec, 1.5)
        assert got == pytest.approx(0.05631351470947271, abs=1e-9)
        single = tail_bound_single(DPSpec(10.0, BER_HALF), 0.75)
        assert got == pytest.approx(single**2, abs=1e-9)

    def test_single_component_matches_tail(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            base = random_measure(rng, int(rng.integers(2, 5)))
            alpha = float(rng.uniform(0.5, 10.0))
            u = base.mean + rng.uniform(0.0, 1.1) * (base.v_max - base.mean)
            got = sum_tail_bound(SumSpec([DPSpec(alpha, base)]), u)
            want = tail_bound_single(DPSpec(alpha, base), u)
            assert got == pytest.approx(want, abs=1e-9)

    def test_above_top_is_zero(self):
        spec = SumSpec([DPSpec(10.0, BER_HALF), DPSpec(10.0, BER_HALF)])
        assert sum_tail_bound(spec, 2.0 + 1e-9) == 0.0
        assert sum_tail_bound(spec, 2.0) == 0.0  # needs a vertex realization

    def test_nonincreasing_in_level(self):
        spec = SumSpec([DPSpec(5.0, BER_HALF), DPSpec(2.0, BER_HALF)])
        us = np.linspace(0.9, 1.99, 25)
        vals = [sum_tail_bound(spec, u) for u in us]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_tensorization(self):
        base = BER_HALF
        alpha, u0, k = 10.0, 0.75, 4
        single = -math.log(sum_tail_bound(SumSpec([DPSpec(alpha, base)]), u0))
        multi = -math.log(
            sum_tail_bound(SumSpec([DPSpec(alpha, base)] * k), k * u0)
        )
        assert multi == pytest.approx(k * single, abs=1e-8)

    def test_chernoff_consistency_with_region(self):
        rng = np.random.default_rng(24)
        for _ in range(6):
            r = int(rng.integers(1, 4))
            spec = SumSpec(
                [
                    DPSpec(
                        float(rng.uniform(1.0, 8.0)),
                        random_measure(rng, int(rng.integers(2, 5)), 0.0),
                    )
                    for _ in range(r)
                ]
            )
            delta = float(rng.uniform(0.02, 0.5))
            radius = region_radius(spec, delta).radius
            eps = 1e-7
            if radius + eps < sum(c.base.v_max for c in spec.components):
                assert sum_tail_bound(spec, radius + eps) <= delta * (1 + 1e-6)

    def test_region_inverts_tail(self):
        # the region at delta = tail(u) reaches back to u; the other direction is
        # ill-conditioned where a radius lies within about 1e-14 of the maxima
        rng = np.random.default_rng(31)
        kept = 0
        while kept < 500:
            spec = SumSpec(
                [
                    DPSpec(float(np.exp(rng.uniform(np.log(0.05), np.log(200.0)))),
                           random_measure(rng, int(rng.integers(2, 6))))
                    for _ in range(int(rng.choice([1, 2, 4])))
                ]
            )
            means = sum(c.base.mean for c in spec.components)
            tops = sum(c.base.v_max for c in spec.components)
            u = means + float(rng.uniform(0.05, 0.95)) * (tops - means)
            value = sum_tail(spec, u).value
            if not math.exp(-40.0) <= value <= 0.99:
                continue
            kept += 1
            assert abs(region_radius(spec, value).radius - u) <= 1e-12 * (tops - means)


class TestOptimalSplit:
    def test_identical_components_split_equally(self):
        spec = SumSpec([DPSpec(10.0, BER_HALF)] * 3)
        split = optimal_split(spec, 2.25)
        assert split == pytest.approx([0.75, 0.75, 0.75], abs=1e-8)
        assert sum(split) == pytest.approx(2.25, abs=1e-8)

    def test_equal_scaled_slopes(self):
        spec = SumSpec([DPSpec(10.0, BER_HALF), DPSpec(1.0, BER_HALF)])
        u1, u2 = optimal_split(spec, 1.5)
        s1 = 10.0 * kinf(BER_HALF, u1).lambda_star
        s2 = 1.0 * kinf(BER_HALF, u2).lambda_star
        assert abs(s1 - s2) <= 1e-5

    def test_matches_grid_oracle(self):
        spec = SumSpec([DPSpec(10.0, BER_HALF), DPSpec(1.0, BER_HALF)])
        split = optimal_split(spec, 1.5)
        objective = sum(
            c.alpha * kinf(c.base, u).value for c, u in zip(spec.components, split)
        )
        grid = np.linspace(0.5, 1.0 - 1e-9, 20_000)
        vals = [
            10.0 * kinf(BER_HALF, u1).value + kinf(BER_HALF, 1.5 - u1).value
            for u1 in grid
            if 0.5 <= 1.5 - u1 < 1.0
        ]
        assert objective <= min(vals) + 1e-6
        assert objective == pytest.approx(
            -math.log(sum_tail_bound(spec, 1.5)), abs=1e-6
        )

    def test_mean_level_returns_means(self):
        spec = SumSpec([DPSpec(2.0, BER_HALF), DPSpec(4.0, BER_HALF)])
        assert optimal_split(spec, 1.0) == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_sums_to_level(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            r = int(rng.integers(2, 5))
            spec = SumSpec(
                [
                    DPSpec(
                        float(rng.uniform(0.5, 10.0)),
                        random_measure(rng, int(rng.integers(2, 5))),
                    )
                    for _ in range(r)
                ]
            )
            lo = sum(c.base.mean for c in spec.components)
            hi = sum(c.base.v_max for c in spec.components)
            u = lo + rng.uniform(0.05, 0.95) * (hi - lo)
            split = optimal_split(spec, u)
            assert sum(split) == pytest.approx(u, abs=1e-8)
            for c, s in zip(spec.components, split):
                assert c.base.mean - 1e-9 <= s <= c.base.v_max + 1e-12

    def test_out_of_band_rejected(self):
        spec = SumSpec([DPSpec(1.0, BER_HALF)])
        with pytest.raises(ValueError):
            optimal_split(spec, 0.4)
        with pytest.raises(ValueError):
            optimal_split(spec, 1.1)

    def test_huge_concentration(self):
        # lam* = alpha (u - mean) / Var is about 4e309, past the float range
        base = canonicalize([(0.0, 0.5), (1e-10, 0.5)])
        spec = SumSpec([DPSpec(1e300, base)] * 2)
        u = 1.2e-10
        split = optimal_split(spec, u)
        assert sum(split) == pytest.approx(u, rel=1e-12)
        assert split[0] == split[1]
        for level in split:
            assert base.mean < level < base.v_max
        assert sum_tail_bound(spec, u) == 0.0

    def test_point_mass_component_pinned(self):
        spec = SumSpec([DPSpec(2.0, canonicalize([(0.25, 1.0)])), DPSpec(5.0, BER_HALF)])
        split = optimal_split(spec, 1.0)
        assert split[0] == pytest.approx(0.25, abs=1e-12)
        assert split[1] == pytest.approx(0.75, abs=1e-8)


# kept as it is by canonicalize (its total is within the weight tolerance), and
# read by the solvers as the point mass at 0.3 although its mean is lower
DEGENERATE = {"atoms": [{"value": 0.3, "weight": 0.9999999999999}]}


def _cli(tmp_path, capsys, command, u):
    base = DEGENERATE
    if command == "sumtail":
        base = {"components": [{"alpha": 1.0, "base": DEGENERATE}]}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(base))
    argv = [command, str(path), f"-u={u!r}"] + (["--alpha", "1"] if command == "tail" else [])
    code = main(argv)
    if code == 2:
        raise ValueError(capsys.readouterr().err)
    assert code == 0
    return json.loads(capsys.readouterr().out)


def _optimal_split(base, u):
    try:
        return {"split": optimal_split(SumSpec([DPSpec(1.0, base)]), u)}
    except ValueError as exc:
        if "must lie in" not in str(exc):
            raise
        return {"split": None}


# what each entry reports at concentration 1: the tail bound, the split, or both
ENTRIES = {
    "kinf": lambda base, u, cli: {"value": math.exp(-kinf(base, u).value)},
    "tail_bound_single": lambda base, u, cli: {"value": tail_bound_single(DPSpec(1.0, base), u)},
    "sum_tail_bound": lambda base, u, cli: {
        "value": sum_tail_bound(SumSpec([DPSpec(1.0, base)]), u)},
    "optimal_split": lambda base, u, cli: _optimal_split(base, u),
    "cli_sumtail": lambda base, u, cli: cli("sumtail", u),
    "cli_tail": lambda base, u, cli: cli("tail", u),
}

# level -> (tail bound, split); the point mass makes 0.3 attained and every
# level below it certain, whatever the weight rounds to
LEVELS = {
    0.3: (1.0, [0.3]),
    0.29999999999999: (1.0, None),
    math.inf: (0.0, None),
    -math.inf: (1.0, None),
}


@pytest.mark.parametrize("u", [*LEVELS, math.nan])
@pytest.mark.parametrize("entry", ENTRIES)
def test_level_contract(entry, u, tmp_path, capsys):
    base = WeightedValues.from_dict(DEGENERATE)
    assert base.mean < 0.3 == base.v_max
    cli = functools.partial(_cli, tmp_path, capsys)
    if math.isnan(u):
        with pytest.raises(ValueError):
            ENTRIES[entry](base, u, cli)
        return
    got = ENTRIES[entry](base, u, cli)
    value, split = LEVELS[u]
    assert got == {k: v for k, v in {"value": value, "split": split}.items() if k in got}


def test_huge_concentration_tail():
    # 2 alpha passes the largest float
    dp = DPSpec(1e308, BER_HALF)
    spec = SumSpec([dp])
    assert sum_tail_bound(spec, 0.6) == tail_bound_single(dp, 0.6) == 0.0
    assert optimal_split(spec, 0.6) == pytest.approx([0.6], rel=1e-12)


@pytest.mark.parametrize("alpha, width", [(1e308, 1e-16), (1e308, 1e-20), (1.7e308, 1e-16)])
def test_huge_concentration_narrow_base_tail(alpha, width):
    # the lower bracket's width * spread underflows to 0 here
    spec = SumSpec([DPSpec(alpha, canonicalize([(0.0, 0.5), (width, 0.5)]))])
    assert sum_tail_bound(spec, 0.6 * width) == 0.0
    assert optimal_split(spec, 0.6 * width) == pytest.approx([0.6 * width], rel=1e-12)


def test_huge_concentration_region():
    # the region's bracket offset alpha log alpha passes the largest float
    radius = region_radius(SumSpec([DPSpec(1e306, BER_HALF)]), 0.5).radius
    want = region_radius(SumSpec([DPSpec(1e300, BER_HALF)]), 0.5).radius
    assert math.isfinite(radius)
    assert radius == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("k, alpha", [(3, 1.7e308), (4, 1e308), (8, 1.7e308)])
def test_huge_concentration_sum_tail(k, alpha):
    # the tail brackets' sums over components pass the float range here, and
    # at k = 8 so do lam (tops - u) and sum_j alpha_j (gap_j + kl_j), while
    # the exponent itself, about 2.8e307, does not
    u = 0.6 * k
    result = sum_tail(SumSpec([DPSpec(alpha, BER_HALF)] * k), u)
    assert result.value == 0.0
    assert sum(result.split) == pytest.approx(u, rel=1e-14)


@pytest.mark.parametrize("k, alpha, delta", [(4, 1.7e308, 0.1), (8, 1e308, 0.1),
                                             (1, 1.7e308, 1.0 - 1e-16),
                                             (2, 1e308, 1.0 - 2**-53)])
def test_huge_concentration_sum_region(k, alpha, delta):
    # spent and its slope pass the float range away from the root, and at
    # delta near 1 the budget per unit of alpha would underflow, or its
    # ratio to spent (log(budget / spent) is then taken as a difference); at these
    # concentrations the budget moves no witness mean by a float
    radius = region_radius(SumSpec([DPSpec(alpha, BER_HALF)] * k), delta).radius
    assert radius == pytest.approx(0.5 * k, rel=1e-12)


SOLVE_SPEC = SumSpec([
    DPSpec(2.0, canonicalize([(0.0, 0.2), (0.3, 0.5), (1.0, 0.3)])),
    DPSpec(0.5, canonicalize([(-1.0, 0.4), (0.5, 0.0), (2.0, 0.6), (3.0, 0.0)])),
    DPSpec(3.0, canonicalize([(1.5, 1.0)])),  # a point mass sits out of the root
])
SOLVE_BASE = canonicalize([(0.0, 0.25), (0.4, 0.25), (0.7, 0.3), (1.0, 0.2)])


class TestOneSolvePerStep:
    """The outer roots solve each live component once per evaluation and read
    their results off the last one, with no solve after the root."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import dpconc.sums as sums_module

        calls = {"solves": 0, "evaluations": 0}
        conjugate, root = sums_module._conjugate, sums_module._root

        def counted_conjugate(*args):
            calls["solves"] += 1
            return conjugate(*args)

        def counted_root(f, *args, **kwargs):
            def counted(x):
                calls["evaluations"] += 1
                return f(x)

            return root(counted, *args, **kwargs)

        monkeypatch.setattr(sums_module, "_conjugate", counted_conjugate)
        monkeypatch.setattr(sums_module, "_root", counted_root)
        return calls

    @pytest.mark.parametrize("query, live", [
        (lambda: region_radius(SOLVE_SPEC, 0.05), 2),
        (lambda: sum_tail(SOLVE_SPEC, 3.5), 2),
        (lambda: kinf(SOLVE_BASE, 0.8), 1),
        (lambda: kinf_inverse(SOLVE_BASE, 0.3), 1),
    ], ids=["region_radius", "sum_tail", "kinf", "kinf_inverse"])
    def test_solves_equal_live_components_times_evaluations(self, calls, query, live):
        query()
        assert calls["evaluations"] > 0
        assert calls["solves"] == live * calls["evaluations"]
