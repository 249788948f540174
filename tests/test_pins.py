"""The solvers' outputs pinned bit for bit on seeded random inputs.

Each family of solver calls draws its inputs from its own seeded
generator and hashes every output field as IEEE-754 bytes, witnesses
included, with sha256.  The pins were computed before the solver views
and witnesses moved to Python floats, and hold any later refactor to the
same numbers.  The bases have 1-12 atoms, some with no mass at the top or
the bottom value (ambient atoms) and some point masses; the sums have 1-4
components.  numpy's ``log`` is dispatched on the CPU's vector
instructions and can differ by an ulp between instruction sets; the pins
were computed with AVX-512 dispatch.
"""

import hashlib
import math
import struct

import numpy as np
import pytest

from dpconc.cgf import cgf_bound, cgf_bound_scaled
from dpconc.kinf import kinf, kinf_inverse, tail_bound_single
from dpconc.measures import DPSpec, canonicalize
from dpconc.sums import SumSpec, region_radius, sum_tail

N_CASES = 1000


def _base(rng):
    n = int(rng.integers(1, 13))
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


FAMILIES = {
    "cgf_bound": (_cgf_bound,
        "50324aa581312dd49cee6ff486e33a0c4ff8ee71766d652789daaf6e9ebfc7a1"),
    "cgf_bound_scaled": (_cgf_bound_scaled,
        "907ce11b17b22e8bf1fbcf6ae8c3a4e108c5462a3f3f3ace201d2d42f4864d31"),
    "kinf": (_kinf,
        "30ea0ca3f2de2264cdbe7190b90eb67cbbebdcc48323d6c86ac6c5a6524a3df8"),
    "kinf_inverse": (_kinf_inverse,
        "c3faf2da4288e485b9363487ad7a409d4775f5124e2a6ae8188a4ccf284e3636"),
    "tail_bound_single": (_tail_bound_single,
        "639bfb46a7c07118dd63daeadfeb9963a6e20b4ae63b73178f446f0de7986748"),
    "region_radius": (_region_radius,
        "2743d08878535741cd748227cc5867aa79096a572b1ed36b56445c316c609045"),
    "sum_tail": (_sum_tail,
        "ca7261a2012f992766f60688d4caae2c01ebca0743f70e1d6ba5a64991ff0fef"),
}


def digest(name: str) -> str:
    case, _ = FAMILIES[name]
    rng = np.random.default_rng(list(FAMILIES).index(name))
    h = hashlib.sha256()
    for _ in range(N_CASES):
        h.update(case(rng))
    return h.hexdigest()


@pytest.mark.parametrize("name", FAMILIES)
def test_outputs_are_pinned(name):
    assert digest(name) == FAMILIES[name][1]
