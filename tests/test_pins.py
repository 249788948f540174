"""The solvers' outputs pinned bit for bit on seeded random inputs.

Each family of solver calls draws its inputs from its own seeded generator
and hashes every output field as IEEE-754 bytes, witnesses included, with
sha256.  The pins hold any later refactor to the same numbers, and are
recomputed only where a change moves them on purpose:
``python tests/test_pins.py`` (with ``src`` on the path) prints every
family's digest and whether it matches its pin.  chernoff_minimum_gamma and
R_k were pinned before Q_k moved to a recursion over set counts and the
references to one view per minimization.  The other eight were recomputed
when the secular root of a view with one atom below its top moved from
Newton's method to the closed-form root of its quadratic, and the slope
dr/dell to top / r / r, which no longer underflows at r < 1e-162.  Outside
kinf and sum_tail their fields moved by at most 1.3e-14 relative.  In those
two, values next to the mean, where the solvers have absolute accuracy
only, moved most: a kinf of 3.1e-9 by 4.3e-12 (now 2.10e-11 relative from
the exact value, where Newton's root left it 2.53e-11 away) and its
multiplier by 2.1e-13, a kinf of 1.0e-5 by 1.7e-13 and a sum tail of 3.9e-8
by 1.4e-13; kinf's diagnostic, now summed from the witness, moved by up to
1.9e-13 and lies within 2.2e-16 of its exact value 1 at every interior
optimum.  Q_k itself moved by rounding and is held to an exactly rounded
enumeration; the rejections of the references and the split moments are
pinned by type and message.

Five were recomputed again when the solver views, the witnesses and the
Gamma log-MGF moved from numpy to ``math``: each gap's log from ``np.log``
to ``math.log``, and the witness and Gamma sums from numpy's pairwise sum
to ``math.fsum``.  Field by field against their values before, on the same
inputs: cgf_bound moved 848 of 16,076 fields, all witness weights and
boundary masses (no value or c_star), by at most 1.7e-14 relative;
cgf_bound_scaled 1 of 1,000, by 4.0e-15; region_radius 1,837 of 34,628, all
witness weights but one lambda_star, by 3.1e-15; sum_tail 2 of 3,195, by
5.7e-14 (a tail of 4.1e-53); chernoff_minimum_gamma 137 of 300, by 1.1e-14.
kinf, kinf_inverse, tail_bound_single, min_scaled_conjugate and r_k did not
move.

No pin moved when ``WeightedValues`` took its float core (two tuples of
Python floats, validated in Python, with read-only arrays built on first
access) and the solver views, the witnesses, kl_discrete, the Gamma log-MGF
and chernoff_minimum_gamma came to read that core instead of the arrays.

Eleven were recomputed, and the canonicalize family with them, when a
measure came to take its weight total and its mean by one rule, ``math.fsum``
over its float core: canonicalize divides by that total (was numpy's
pairwise sum) and ``base.mean`` is the correctly rounded sum of the rounded
products (was a dot product, whose rounding could depend on the CPU's
vector instructions).  The pin generators zero Dirichlet weights, so their
bases are renormalized, and several place levels from ``base.mean``; the
inputs moved, not the solvers.  Field by field against their values before,
on the same inputs: cgf_bound moved 594 of 16,076 fields, by at most 9.1e-16
relative; cgf_bound_scaled 19 of 1,000, 5.0e-14; kinf 362 of 4,000, 1.6e-11;
kinf_inverse 29 of 1,000, 1.4e-15; tail_bound_single 92 of 1,000, 1.1e-11;
region_radius 2,272 of 34,628, 5.7e-14; sum_tail 395 of 3,289, 1.8e-11, with
four more cases whose level is the sum of the means and whose split went
from the means to null; min_scaled_conjugate 34 of 300, 1.9e-12;
chernoff_minimum_gamma 39 of 300, 4.0e-13; sample_exact 300 of 11,050,
1.2e-13; sample_payoff_means 276 of 12,689, 2.1e-15; canonicalize 1,922 of
16,096, all weights, by at most 3 ulps.  The largest moves sit next to the
mean, where the solvers have absolute accuracy only.  r_k and
sample_stick_breaking did not move.  No numpy call is left on the solvers'
path, so the pins do not depend on the CPU's vector instructions.

Five were recomputed when the outer roots came to end on their last solve
(the shift of the last evaluation, within the root's tolerance of the root,
in place of a re-solve at the returned root) and to start each inner root on
the tangent dr/dell of its last solution.  Field by field against their values
before, on the same inputs: kinf moved 854 of 4,000 fields, its value 264 by
at most 4.3e-12 relative (8.9e-16 absolute, next to the mean), its multiplier
423 by 1.1e-11 and its diagnostic 167 by 8.4e-16; kinf_inverse 172 of 1,000,
by 2.1e-15; tail_bound_single 159 of 1,000, its exponent by at most 3.4e-13
absolute; region_radius 9,069 of 34,628, the radius 207 by 1.5e-15, the
multiplier 703 by 7.4e-13 and the rest witness weights, by 2.2e-10; sum_tail
778 of 3,297, its exponent 283 by 1.1e-12 absolute and its split 495 by
2.8e-12 relative, with the same cases null.  The radius and the exponent are
stationary at the root, so they moved least; the multipliers, splits and
witnesses are first order in the root's last step.  cgf_bound,
cgf_bound_scaled, the references and the witnesses' new construction (on the
base's checked values) moved nothing, and the 9-digit CLI pins did not move.

The bases have 1-12 atoms (1-8 for the references), some with no mass at
the top or the bottom value (ambient atoms) and some point masses; the sums
have 1-4 components.

The three samplers are pinned on DPs of 1-8 atoms with alpha in e^±3, the
same kinds of bases, and stick-breaking tolerances from 1e-9 to 1e-1 (about
one draw in eleven takes more than one chunk of sticks).  Each case draws
from the family's generator and hashes its next two uniforms too, so that a
sampler must also leave the stream where it was.

The CLI pins hold the stdout of ``bound``, ``kinf``, ``tail``, ``region``
and ``sumtail`` at their default 9 significant digits, with the exit code,
on 50 inputs each from the same generators, written to JSON files.  They
were recorded before the outer roots came to end on their last solve, so
that "the 9-digit CLI output is byte-identical" is checked, not claimed.

The canonicalize family pins the measures built from raw pairs: 1-20 pairs
in no order, with repeated values, signed zeros and zero weights, totalling
about 1 (some within 2e-12 of it), 1e-300 to 1e300, or past the float range.
"""

import contextlib
import hashlib
import io
import json
import math
import struct
import tempfile

import numpy as np
import pytest

from oracles import qk_enumerate
from dpconc.cgf import cgf_bound, cgf_bound_scaled
from dpconc.cli import main
from dpconc.kinf import kinf, kinf_inverse, tail_bound_single
from dpconc.measures import DPSpec, canonicalize
from dpconc.sampler import (
    moment_nested,
    qk_rk,
    sample_exact,
    sample_payoff_means,
    sample_stick_breaking,
)
from dpconc.sums import SumSpec, region_radius, sum_tail
from dpconc.verify import chernoff_minimum_gamma, min_scaled_conjugate

N_CASES = 1000


def _base(rng, most=12):
    n = int(rng.integers(1, most + 1))
    scale = math.exp(rng.uniform(-3.0, 3.0))
    values = rng.uniform(-10.0, 10.0) + scale * np.cumsum(rng.uniform(0.05, 1.0, n))
    weights = rng.dirichlet(np.ones(n))
    if n > 1:
        kind = rng.random()
        if kind < 0.25:
            weights[-1] = 0.0  # ambient top
        elif kind < 0.4:
            weights[0] = 0.0  # ambient bottom
        elif kind < 0.5:
            weights[:-1] = 0.0  # all the mass on the top value
    return canonicalize(zip(values.tolist(), weights.tolist()))


def _dp(rng):
    return DPSpec(math.exp(rng.uniform(-5.0, 8.0)), _base(rng))


def _spec(rng):
    return SumSpec([_dp(rng) for _ in range(int(rng.integers(1, 5)))])


def _level(rng, lo, hi):
    """A level in (lo, hi) mostly, and now and then one of the ends or past them."""
    kind = rng.random()
    if kind < 0.05:
        return lo
    if kind < 0.1:
        return hi
    if kind < 0.15:
        return lo - rng.uniform(0.0, 1.0) * (hi - lo + 1.0)
    if kind < 0.2:
        return hi + rng.uniform(0.0, 1.0) * (hi - lo + 1.0)
    return lo + rng.uniform(0.0, 1.0) * (hi - lo)


def _floats(*xs) -> bytes:
    return struct.pack(f"<{len(xs)}d", *xs)


def _measure(m) -> bytes:
    return m.values.tobytes() + m.weights.tobytes()


def _cgf_bound(rng):
    r = cgf_bound(_dp(rng))
    return _floats(r.value, r.c_star, r.boundary_mass) + _measure(r.witness)


def _cgf_bound_scaled(rng):
    dp = _dp(rng)
    lam = math.exp(rng.uniform(-5.0, 5.0))
    u = _level(rng, dp.base.v_min, dp.base.v_max)
    return _floats(cgf_bound_scaled(dp, lam, u))


def _kinf(rng):
    base = _base(rng)
    r = kinf(base, _level(rng, base.mean, base.v_max))
    return _floats(r.value, r.lambda_star, r.at_boundary, r.diagnostic)


def _kinf_inverse(rng):
    return _floats(kinf_inverse(_base(rng), math.exp(rng.uniform(-10.0, 5.0))))


def _tail_bound_single(rng):
    dp = _dp(rng)
    return _floats(tail_bound_single(dp, _level(rng, dp.base.mean, dp.base.v_max)))


def _region_radius(rng):
    spec = _spec(rng)
    r = region_radius(spec, math.exp(-rng.uniform(0.01, 15.0)))
    out = _floats(r.radius, r.lambda_star, r.unconstrained)
    return out + b"".join(_measure(w) for w in r.witnesses)


def _sum_tail(rng):
    spec = _spec(rng)
    lo = math.fsum(c.base.mean for c in spec.components)
    hi = math.fsum(c.base.v_max for c in spec.components)
    r = sum_tail(spec, _level(rng, lo, hi))
    return _floats(r.value) + (b"none" if r.split is None else _floats(*r.split))


def _reference_input(rng):
    """A DP of 1-8 atoms and a level in (mean, v_max), or below v_max where the
    mean is v_max."""
    dp = DPSpec(math.exp(rng.uniform(-3.0, 4.0)), _base(rng, 8))
    lo = dp.base.mean if dp.base.mean < dp.base.v_max else dp.base.v_max - 1.0
    u = lo + rng.uniform(0.0, 1.0) * (dp.base.v_max - lo)
    return dp, u if u < dp.base.v_max else lo


def _min_scaled_conjugate(rng):
    return _floats(min_scaled_conjugate(*_reference_input(rng)))


def _chernoff_minimum_gamma(rng):
    return _floats(chernoff_minimum_gamma(*_reference_input(rng)))


POINT = canonicalize([(0.0, 1.0)])  # moment_nested reads alpha alone


def _r_k(rng):
    """R_k of qk_rk and the nested moment of the same masses; Q_k is checked
    against enumeration instead."""
    k = int(rng.integers(1, 21))
    alpha, beta = np.exp(rng.uniform(-5.0, 5.0, 2)).tolist()
    kind = rng.random()
    if kind < 0.1:
        masses = rng.uniform(0.0, 1e-12, k)  # below the rounding of the ranks
    elif kind < 0.2:
        masses = rng.integers(0, 2, k).astype(float)
    else:
        masses = rng.uniform(0.0, 1.0, k)
    _, r = qk_rk(alpha, beta, masses, k)
    return _floats(r, moment_nested(DPSpec(alpha, POINT), np.sort(masses)))


def _sampler_dp(rng):
    return DPSpec(math.exp(rng.uniform(-3.0, 3.0)), _base(rng, 8))


def _draw(sample, rng) -> bytes:
    return sample.values.tobytes() + sample.weights.tobytes() + rng.random(2).tobytes()


def _sample_stick_breaking(rng):
    dp = _sampler_dp(rng)
    return _draw(sample_stick_breaking(dp, rng, 10.0 ** -rng.uniform(1.0, 9.0)), rng)


def _sample_exact(rng):
    return _draw(sample_exact(_sampler_dp(rng), rng), rng)


def _sample_payoff_means(rng):
    dp = _sampler_dp(rng)
    means = sample_payoff_means(dp, int(rng.integers(1, 21)), rng)
    return means.tobytes() + rng.random(2).tobytes()


def _canonicalize(rng):
    """1-20 raw pairs in no order, with repeated values, signed zeros and zero
    weights, totalling about 1 (some within 2e-12 of it), 1e-300 to 1e300, or
    past the float range."""
    n = int(rng.integers(1, 21))
    pool = np.r_[rng.normal(size=n), 0.0, -0.0]
    kind = rng.random()
    if kind < 0.1 or rng.random() < 0.3:
        values = rng.permutation(pool)[:n]  # no repeats but the signed zeros
    else:
        values = rng.choice(pool, size=n)
    if kind < 0.1:
        # finite weights, and merged ones, whose total passes the float range
        weights = rng.uniform(0.25, 0.5, n) * 1.7e308
    elif kind < 0.4:
        weights = rng.dirichlet(np.ones(n))
    elif kind < 0.55:
        weights = rng.dirichlet(np.ones(n)) * (1.0 + rng.uniform(-2e-12, 2e-12))
    else:
        weights = rng.random(n) * 10.0 ** rng.uniform(-300.0, 300.0)
    weights[rng.random(n) < 0.2] = 0.0
    if not weights.any():
        weights[-1] = 1.0
    return _measure(canonicalize(zip(values.tolist(), weights.tolist())))


FAMILIES = {
    "cgf_bound": (_cgf_bound,
        "84920476ed16240155720bfb520459745c35db32902c2ff7cdc7c10adcf59613"),
    "cgf_bound_scaled": (_cgf_bound_scaled,
        "82d031d3194c5ed4eca39418e2db465a702dff0c33bd441ce4a25d16e0d23714"),
    "kinf": (_kinf,
        "e4fe101abb5784bed3b8ef29a577b1033101711e07e8f1acfbc6599c818a125a"),
    "kinf_inverse": (_kinf_inverse,
        "070c16b35e022378997f3cb0660513cdb0c68474c37347998026505f05e71a0a"),
    "tail_bound_single": (_tail_bound_single,
        "d03aa00e0e628135d96ac8ce031213ae62a3209ff4fabbc22424b90ae47fb3c1"),
    "region_radius": (_region_radius,
        "b19b3f1c4dbe869bd424addd50a2ea08e4444321c782a9a2a87620d7b2c781a6"),
    "sum_tail": (_sum_tail,
        "4fb2ba036130beee2b67bf5b51bd112171cedaaad52810f224f3dc54d6d1cf6a"),
    "min_scaled_conjugate": (_min_scaled_conjugate,
        "e147e7f398da6f3bdfad4b54a7452b51d6f62f5b647f3e3d65aceef204002db4"),
    "chernoff_minimum_gamma": (_chernoff_minimum_gamma,
        "b101fd80630e15521ba6736e8a323f6e9afe6682ba53bed277b56a9459eea838"),
    "r_k": (_r_k,
        "3f6c7284d36ec4e5619eb7508cfcb9002599d0ed3c98afd8f5c526f582363082"),
    "sample_stick_breaking": (_sample_stick_breaking,
        "7b0788ba7aac68d69a9938970d0b64c20bf04ab423b432c875583555b902778a"),
    "sample_exact": (_sample_exact,
        "dce5bd1e9361cd31e7ab268321eae3dec322eb588359d01e614f06febf512afc"),
    "sample_payoff_means": (_sample_payoff_means,
        "bab91e5666f66f37dcb51a178720c2551a3c9bfe167964ccda6a515aac1846ce"),
    "canonicalize": (_canonicalize,
        "1e93c23affa545d0f8ddb14433cea3d08974af19520d2a3ae996ee1d8621d663"),
}
# the two references take about a millisecond a call
CASES = {"min_scaled_conjugate": 300, "chernoff_minimum_gamma": 300}


def digest(name: str) -> str:
    case, _ = FAMILIES[name]
    rng = np.random.default_rng(list(FAMILIES).index(name))
    h = hashlib.sha256()
    for _ in range(CASES.get(name, N_CASES)):
        h.update(case(rng))
    return h.hexdigest()


@pytest.mark.parametrize("name", FAMILIES)
def test_outputs_are_pinned(name):
    assert digest(name) == FAMILIES[name][1]


def _write(folder, name, data) -> str:
    path = f"{folder}/{name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _spec_data(spec):
    return {"components": [{"alpha": c.alpha, "base": c.base.to_dict()}
                           for c in spec.components]}


def _cli_bound(rng, folder):
    dp = _dp(rng)
    return ["bound", _write(folder, "base", dp.base.to_dict()), f"--alpha={dp.alpha!r}"]


def _cli_kinf(rng, folder):
    base = _base(rng)
    u = _level(rng, base.mean, base.v_max)
    return ["kinf", _write(folder, "base", base.to_dict()), f"-u={u!r}"]


def _cli_tail(rng, folder):
    dp = _dp(rng)
    u = _level(rng, dp.base.mean, dp.base.v_max)
    return ["tail", _write(folder, "base", dp.base.to_dict()), f"--alpha={dp.alpha!r}", f"-u={u!r}"]


def _cli_region(rng, folder):
    spec = _spec(rng)
    delta = math.exp(-rng.uniform(0.01, 15.0))
    return ["region", _write(folder, "spec", _spec_data(spec)), f"--delta={delta!r}"]


def _cli_sumtail(rng, folder):
    spec = _spec(rng)
    lo = math.fsum(c.base.mean for c in spec.components)
    hi = math.fsum(c.base.v_max for c in spec.components)
    return ["sumtail", _write(folder, "spec", _spec_data(spec)), f"-u={_level(rng, lo, hi)!r}"]


# the stdout of the bound commands at their default 9 significant digits, on
# CLI_CASES seeded inputs each; an argv is hashed with its exit code and output
CLI = {
    "bound": (_cli_bound,
        "5445d201b869c852d51961d900e45f65a2efdfc52d7fdb9b656cbe9ad7e17645"),
    "kinf": (_cli_kinf,
        "b7de361e8c19ebb37bc5464cbfd75af6f331d060db48ad1216cc8f4a6f081b69"),
    "tail": (_cli_tail,
        "74a4c7bdeab98519fc556c3cd6e54950d0b00c35cbb674a206f059f62746c061"),
    "region": (_cli_region,
        "ea656e014f851033c51215baa6733d27b04a4f8490d5955a703fb4bd77d257c5"),
    "sumtail": (_cli_sumtail,
        "f245e9211de5626631fb9252fd17e3c64127d5722873a793dc0df9a7c0a08fb4"),
}
CLI_CASES = 50


def cli_digest(command: str) -> str:
    case, _ = CLI[command]
    rng = np.random.default_rng(100 + list(CLI).index(command))
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as folder:
        for _ in range(CLI_CASES):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(case(rng, folder))
            h.update(f"{code}\n{out.getvalue()}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("command", CLI)
def test_cli_output_is_pinned(command):
    assert cli_digest(command) == CLI[command][1]


def test_split_moment_matches_enumeration():
    rng = np.random.default_rng(20)
    for k in range(1, 13):
        for _ in range(8):
            alpha, beta = np.exp(rng.uniform(-3.0, 3.0, 2)).tolist()
            masses = rng.uniform(0.0, 1.0, k)
            q, _ = qk_rk(alpha, beta, masses, k)
            assert q == pytest.approx(qk_enumerate(alpha, beta, masses), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("atoms, alpha, u, conjugate, gamma", [
    # v_max - u overflows, so both searches evaluate lam = 0 alone
    ([(-1.7e308, 0.5), (1.7e308, 0.5)], 2.0, -1e308, 0.0, "values must be finite"),
    # the end of the conjugate's interval, or of both, overflows
    ([(0.0, 0.5), (1e-300, 0.5)], 1e10, 0.5e-300, ValueError, -0.0),
    ([(0.0, 0.5), (1e-310, 0.5)], 2.0, 0.5e-310, ValueError, "values must be finite"),
    # v - u rounds two values together
    ([(0.0, 0.5), (1e-3, 0.25), (1e30, 0.25)], 2.0, 1e20, 0.1742697283924115,
     "values must be strictly increasing"),
])
@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_reference_edges_are_pinned(atoms, alpha, u, conjugate, gamma):
    dp = DPSpec(alpha, canonicalize(atoms))
    for reference, want in ((min_scaled_conjugate, conjugate), (chernoff_minimum_gamma, gamma)):
        if want is ValueError:
            with pytest.raises(ValueError):
                reference(dp, u)
        elif isinstance(want, str):
            with pytest.raises(ValueError, match=f"^{want}$"):
                reference(dp, u)
        else:
            assert _floats(reference(dp, u)) == _floats(want)


@pytest.mark.parametrize("args, message", [
    ((1.0, 1.0, [], 0), r"k must be in \[1, 20\]"),
    ((1.0, 1.0, [0.5] * 21, 21), r"k must be in \[1, 20\]"),
    ((1.0, 1.0, [0.5], 2), "expected 2 set masses, got 1"),
    ((1.0, 1.0, [0.2, 0.3, 0.4], 2), "expected 2 set masses, got 3"),
    ((1.0, 1.0, [0.2, math.nan], 2), r"set masses must lie in \[0,1\]"),
    ((1.0, 1.0, [0.2, 1.2], 2), r"set masses must lie in \[0,1\]"),
    ((1.0, 1.0, [-0.1, 0.2], 2), r"set masses must lie in \[0,1\]"),
    ((0.0, 1.0, [0.5], 1), "alpha and beta must be positive"),
    ((1.0, -1.0, [0.5], 1), "alpha and beta must be positive"),
    ((math.nan, 1.0, [0.5], 1), "alpha and beta must be positive"),
    ((-1.0, 1.0, [0.5], 0), "alpha and beta must be positive"),
])
def test_split_moment_errors_are_pinned(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        qk_rk(*args)


@pytest.mark.parametrize("masses, message", [
    ([], "need at least one set mass"),
    ([0.6, 0.2], r"set masses must be nondecreasing \(nested sets\)"),
    ([1.2, 0.2], r"set masses must be nondecreasing \(nested sets\)"),
    ([0.2, math.nan], r"set masses must lie in \[0,1\]"),
    ([math.nan, 0.2], r"set masses must lie in \[0,1\]"),
    ([0.5, 1.2], r"set masses must lie in \[0,1\]"),
    ([-0.1, 0.5], r"set masses must lie in \[0,1\]"),
])
def test_nested_moment_errors_are_pinned(masses, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        moment_nested(DPSpec(1.0, POINT), masses)


if __name__ == "__main__":
    # the digest of every family, and whether it matches its pin
    for name, (_, pinned) in FAMILIES.items():
        now = digest(name)
        print(f"{name:24} {now} {'pinned' if now == pinned else 'MOVED'}")
    for command, (_, pinned) in CLI.items():
        now = cli_digest(command)
        print(f"cli {command:20} {now} {'pinned' if now == pinned else 'MOVED'}")
