import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpconc
import dpconc.verify as verify
from dpconc.verify import SUITES, run_suite


def test_all_suite_names_registered():
    assert set(SUITES) == {"moments", "superadd", "duality", "mc-bound", "ldp"}


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope", seed=0)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_zero_samples_rejected(name):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        run_suite(name, seed=0, samples=0)


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("duality", {"samples": 50}),
        ("superadd", {"samples": 150}),
        ("moments", {"samples": 30_000}),
        ("mc-bound", {"samples": 30_000}),
        ("ldp", {"samples": 1_000_000}),
    ],
)
def test_suites_pass_on_default_seed(name, kwargs):
    report = run_suite(name, seed=789001361, **kwargs)
    assert report["suite"] == name
    assert report["passed"], report
    for check in report["checks"]:
        assert set(check) >= {"name", "passed", "margin"}


def test_ldp_suite_passes_on_every_seed():
    # the asserted rate is read where hits are plenty: at alpha = 80 under one
    # hit is expected, too few to hold a 25 % band on every seed
    failed = [seed for seed in range(20) if not run_suite("ldp", seed=seed)["passed"]]
    assert failed == []


def test_tolerance_override_wires_through(monkeypatch):
    # an absurdly tight duality tolerance must flip the suite to failing
    monkeypatch.setattr(verify, "_DUALITY_TOL", 1e-18)
    report = run_suite("duality", seed=3, samples=10)
    assert not report["passed"]


@pytest.fixture(scope="module")
def moments_at_seed_101():
    return run_suite("moments", seed=101)


def test_moments_suite_passes_at_seed_101(moments_at_seed_101):
    # the worst of the 20 configurations sits 3.44 standard errors out: a
    # joint 3-sigma band fails here on correct code, the Bonferroni band holds
    report = moments_at_seed_101
    assert report["passed"], report
    check = report["checks"][0]
    assert check["name"] == "nested_moments_within_3_sigma"
    assert check["z"] == pytest.approx(3.817, abs=1e-3)


def test_moments_margin_leaves_out_deterministic_products(moments_at_seed_101):
    # configurations whose cuts take every atom have a product of 1; they
    # would pin the margin at the 1e-12 floor of rounding
    assert moments_at_seed_101["checks"][0]["margin"] > 1e-6


def test_moments_suite_detects_a_one_percent_bias(monkeypatch):
    import dpconc.verify as verify

    exact = verify.moment_nested
    monkeypatch.setattr(verify, "moment_nested", lambda dp, masses: 1.01 * exact(dp, masses))
    report = run_suite("moments", seed=789001361, samples=30_000)
    assert not report["passed"]
    assert not report["checks"][0]["passed"]


def test_ks_matches_scipy_bitwise():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(31)
    pairs = [(np.arange(5.0), np.arange(5.0))]
    for n in (20, 50, 999, 10_000):
        for shift in (0.0, 0.05, 0.5):
            pairs.append((rng.normal(size=n), rng.normal(shift, 1.0, size=n)))
        # ties: the counts are taken at or below each value
        pairs.append((rng.integers(0, 5, n).astype(float), rng.integers(0, 5, n).astype(float)))
    for x, y in pairs:
        want = stats.ks_2samp(x, y)
        assert verify._ks_2samp(x, y) == (float(want.statistic), float(want.pvalue))


def test_moments_command_runs_without_scipy():
    # the runtime declares numpy only; block scipy and run the one suite that used it
    code = ("import sys; sys.modules['scipy'] = None; from dpconc.cli import main; "
            "sys.exit(main(['verify', 'moments', '--samples', '2000']))")
    env = dict(os.environ)
    src = str(Path(dpconc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert '"suite": "moments"' in proc.stdout
