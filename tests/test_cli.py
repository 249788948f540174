import json
import math
import subprocess
import sys

import numpy as np
import pytest

from dpconc.cli import DEFAULT_SEED, main

BER = {"atoms": [{"value": 0.0, "weight": 0.5}, {"value": 1.0, "weight": 0.5}]}
SPEC2 = {
    "components": [
        {"alpha": 4.0, "base": BER},
        {"alpha": 4.0, "base": BER},
    ]
}
INSTANCE = {"n": 4, "m": 2, "block_means": [0.9, 0.6]}


@pytest.fixture
def measure_file(tmp_path):
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(BER))
    return str(path)


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC2))
    return str(path)


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(INSTANCE))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComputeCommands:
    def test_kinf_reference(self, capsys, measure_file):
        code, out, _ = run_cli(capsys, "kinf", measure_file, "-u", "0.75")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == pytest.approx(0.143841036, abs=1e-9)
        assert data["lambda_star"] == pytest.approx(4.0 / 3.0, abs=1e-6)

    def test_kinf_below_mean(self, capsys, measure_file):
        code, out, _ = run_cli(capsys, "kinf", measure_file, "-u", "0.3")
        assert code == 0
        assert json.loads(out)["value"] == 0.0

    def test_nine_significant_digits_default(self, capsys, measure_file):
        _, out, _ = run_cli(capsys, "kinf", measure_file, "-u", "0.75")
        assert '"value": 0.143841036,' in out

    def test_full_precision_flag(self, capsys, measure_file):
        _, out, _ = run_cli(capsys, "--precision", "kinf", measure_file, "-u", "0.75")
        value = json.loads(out)["value"]
        assert value == pytest.approx(0.14384103622589045, abs=1e-15)
        assert len(f"{value!r}") > 11

    def test_bound_reference(self, capsys, measure_file):
        code, out, _ = run_cli(capsys, "bound", measure_file, "--alpha", "1")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == pytest.approx(0.612993578, abs=1e-8)
        assert len(data["witness"]["atoms"]) == 2

    def test_tail_below_mean(self, capsys, measure_file):
        code, out, _ = run_cli(
            capsys, "tail", measure_file, "--alpha", "10", "-u", "0.4"
        )
        assert code == 0
        assert json.loads(out)["value"] == 1.0

    def test_region_reference(self, capsys, spec_file):
        code, out, _ = run_cli(
            capsys, "region", spec_file, "--delta", str(math.exp(-2.0))
        )
        assert code == 0
        data = json.loads(out)
        assert data["radius"] == pytest.approx(1.62727135, abs=1e-6)
        assert len(data["witnesses"]) == 2

    def test_sumtail_below_means(self, capsys, spec_file):
        code, out, _ = run_cli(capsys, "sumtail", spec_file, "-u", "0.9")
        assert code == 0
        assert json.loads(out)["value"] == 1.0

    def test_sumtail_split_reported(self, capsys, spec_file):
        _, out, _ = run_cli(capsys, "sumtail", spec_file, "-u", "1.5")
        data = json.loads(out)
        assert data["split"] == pytest.approx([0.75, 0.75], abs=1e-6)

    def test_records_print_their_fields_in_order(self, capsys, measure_file, spec_file):
        for argv, keys in (
            (["kinf", measure_file, "-u", "0.75"],
             ["value", "lambda_star", "at_boundary", "diagnostic"]),
            (["bound", measure_file, "--alpha", "1"],
             ["value", "c_star", "boundary_mass", "witness"]),
            (["region", spec_file, "--delta", "0.1"],
             ["radius", "lambda_star", "unconstrained", "witnesses"]),
            (["sumtail", spec_file, "-u", "1.5"], ["value", "split"]),
        ):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert list(json.loads(out)) == keys

    def test_csv_format(self, capsys, measure_file):
        code, out, _ = run_cli(
            capsys, "--format", "csv", "kinf", measure_file, "-u", "0.75"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "key,value"
        assert lines[1].startswith("value,0.143841036")


class TestErrorContract:
    def test_malformed_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "kinf", str(bad), "-u", "0.5")
        assert code == 2
        assert "error:" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "kinf", "/nonexistent.json", "-u", "0.5")
        assert code == 2

    def test_invalid_measure_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"atoms": [{"value": 0.0, "weight": -1.0}]}))
        code, _, err = run_cli(capsys, "kinf", str(bad), "-u", "0.5")
        assert code == 2

    def test_bad_delta_exits_2(self, capsys, spec_file):
        code, _, _ = run_cli(capsys, "region", spec_file, "--delta", "1.5")
        assert code == 2

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2

    def test_bad_instance_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "inst.json"
        bad.write_text(json.dumps({"n": 5, "m": 2, "block_means": [0.9, 0.6]}))
        code, _, _ = run_cli(capsys, "bandit", str(bad), "--policy", "cts", "-T", "5")
        assert code == 2

    def test_fractional_instance_size_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "inst.json"
        bad.write_text(json.dumps({"n": 4.9, "m": 2, "block_means": [0.9, 0.6]}))
        code, out, err = run_cli(capsys, "bandit", str(bad), "--policy", "cts", "-T", "5")
        assert code == 2
        assert out == ""
        assert "error: n and m must be integers" in err

    def test_arithmetic_error_exits_2(self, capsys, monkeypatch, spec_file):
        import dpconc.cli as cli_mod

        def overflow(*args, **kwargs):
            raise OverflowError("math range error")

        monkeypatch.setattr(cli_mod, "region_radius", overflow)
        code, out, err = run_cli(capsys, "region", spec_file, "--delta", "0.1")
        assert code == 2
        assert out == ""
        assert "error: math range error" in err

    def test_tiny_alpha_region_succeeds(self, capsys, tmp_path):
        # a budget of 2 nats at alpha = 1e-9 leaves each witness all but about
        # exp(-1e9) of its mass on the top atom
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"components": [{"alpha": 1e-9, "base": BER}] * 2}))
        code, out, _ = run_cli(capsys, "region", str(spec), "--delta", "0.1353352832366127")
        assert code == 0
        assert json.loads(out)["radius"] == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("atoms, top", [
        ([(0.0, 1e-14), (0.5, 1.0)], 0.5),
        ([(0.9999999999999999, 1.0), (1.0, 5e-13)], 1.0),
    ])
    def test_mean_rounded_to_top_region_succeeds(self, capsys, tmp_path, atoms, top):
        # the base's mean rounds to its top, or passes it by the weights' tolerance
        base = {"atoms": [{"value": v, "weight": w} for v, w in atoms]}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"components": [{"alpha": 1.0, "base": base}]}))
        code, out, _ = run_cli(capsys, "region", str(spec), "--delta", "0.1")
        assert code == 0
        assert json.loads(out)["radius"] == top

    def test_huge_alpha_bound_succeeds(self, capsys, tmp_path):
        # alpha / gap = 1e310 is past the largest float
        measure = tmp_path / "measure.json"
        atoms = [{"value": 0.0, "weight": 0.5}, {"value": 1e-10, "weight": 0.5}]
        measure.write_text(json.dumps({"atoms": atoms}))
        code, out, _ = run_cli(capsys, "bound", str(measure), "--alpha", "1e300")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(5e-11, rel=1e-8)

    def test_tiny_top_mass_bound_succeeds(self, capsys, tmp_path):
        measure = tmp_path / "measure.json"
        atoms = [{"value": 0.0, "weight": 1.0}, {"value": 1.0, "weight": 1e-17}]
        measure.write_text(json.dumps({"atoms": atoms}))
        code, out, _ = run_cli(capsys, "bound", str(measure), "--alpha", "1e-3")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.992092245, rel=1e-9)

    def test_huge_alpha_sumtail_succeeds(self, capsys, tmp_path):
        base = {"atoms": [{"value": 0.0, "weight": 0.5}, {"value": 1e-10, "weight": 0.5}]}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"components": [{"alpha": 1e300, "base": base}] * 2}))
        code, out, _ = run_cli(capsys, "sumtail", str(spec), "-u", "1.2e-10")
        assert code == 0
        data = json.loads(out)
        assert data["value"] == 0.0
        assert sum(data["split"]) == pytest.approx(1.2e-10, rel=1e-8)


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, dpconc.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


def test_parser_is_built_on_the_first_call_then_reused(capsys, measure_file):
    code = "import dpconc.cli; print(dpconc.cli._build_parser.cache_info().currsize)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "0"
    from dpconc.cli import _build_parser

    first = run_cli(capsys, "--precision", "kinf", measure_file, "-u", "0.75")
    assert run_cli(capsys, "kinf", measure_file, "-u", "0.75") != first
    assert run_cli(capsys, "--precision", "kinf", measure_file, "-u", "0.75") == first
    assert _build_parser.cache_info().currsize == 1


class _NoNumpy:
    """numpy for ``dpconc.measures`` with the array type alone, which ``_floats`` checks for."""

    ndarray = np.ndarray

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} called")


# repeated values, signed zeros, a zero weight, a total of 7.5
UNEVEN = {"atoms": [{"value": 1.0, "weight": 3.0}, {"value": 0.0, "weight": 1.0},
                    {"value": 1.0, "weight": 2.0}, {"value": 0.5, "weight": 0.0},
                    {"value": -0.0, "weight": 1.5}, {"value": 0.25, "weight": 0.0}]}
SPEC_UNEVEN = {"components": [{"alpha": 3.0, "base": UNEVEN}, {"alpha": 0.5, "base": BER},
                              {"alpha": 7.0, "base": UNEVEN}]}


@pytest.mark.parametrize("argv", [
    ("kinf", "MEASURE", "-u", "0.8"),
    ("bound", "MEASURE", "--alpha", "2"),
    ("tail", "MEASURE", "--alpha", "2", "-u", "0.8"),
    ("region", "SPEC", "--delta", "0.05"),
    ("sumtail", "SPEC", "-u", "2.2"),
])
def test_bound_commands_make_no_numpy_call(capsys, monkeypatch, tmp_path, argv):
    import dpconc.measures

    files = {"MEASURE": tmp_path / "measure.json", "SPEC": tmp_path / "spec.json"}
    files["MEASURE"].write_text(json.dumps(UNEVEN))
    files["SPEC"].write_text(json.dumps(SPEC_UNEVEN))
    argv = ["--precision"] + [str(files.get(a, a)) for a in argv]
    want = run_cli(capsys, *argv)
    monkeypatch.setattr(dpconc.measures, "np", _NoNumpy())
    assert run_cli(capsys, *argv) == want
    assert want[0] == 0


class TestVerifyCommand:
    def test_duality_suite_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "--seed", "3", "verify", "duality", "--samples", "25"
        )
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert {c["name"] for c in report["checks"]} == {
            "conjugate_matches_projection",
            "gamma_chernoff_matches_projection",
        }

    def test_superadd_suite_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "--seed", "3", "verify", "superadd", "--samples", "60"
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_zero_samples_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "duality", "--samples", "0")
        assert code == 2
        assert out == ""
        assert "samples must be >= 1" in err

    def test_no_tolerance_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "duality", "--tol", "1e-3"])
        assert exc.value.code == 2

    def test_one_sample_mc_bound_reports_infinite_error(self, capsys):
        # one draw gives the log-MGF estimate a standard error of inf, which
        # prints as Infinity; the one-draw tail checks fail the suite
        code, out, _ = run_cli(capsys, "verify", "mc-bound", "--samples", "1")
        assert code == 1
        check = json.loads(out)["checks"][0]
        assert check["name"] == "log_mgf_bound_alpha_1"
        assert check["se"] == math.inf and check["passed"] is True
        assert '"se": Infinity' in out

    def test_one_sample_moments_exits_2(self, capsys):
        # one draw has no standard error: refused before any numpy warning
        code, out, err = run_cli(capsys, "verify", "moments", "--samples", "1")
        assert code == 2
        assert out == ""
        assert err == "error: the moments suite needs samples >= 2, got 1\n"

    def test_failing_suite_exits_1(self, capsys, monkeypatch):
        import dpconc.cli as cli_mod

        monkeypatch.setattr(
            cli_mod, "run_suite", lambda *a, **k: {"passed": False, "checks": []}
        )
        code, _, _ = run_cli(capsys, "verify", "duality")
        assert code == 1


class TestBanditCommand:
    def test_oracle_zero_regret(self, capsys, instance_file):
        code, out, _ = run_cli(
            capsys, "bandit", instance_file, "--policy", "oracle", "-T", "20",
            "--reps", "2",
        )
        assert code == 0
        data = json.loads(out)
        assert data["mean_RT"] == 0.0
        assert data["lower_bound_constant"] == pytest.approx(0.963890479, abs=1e-8)

    def test_summary_fields(self, capsys, instance_file):
        _, out, _ = run_cli(
            capsys, "--seed", "5", "bandit", instance_file, "--policy", "cts",
            "-T", "200", "--reps", "3",
        )
        data = json.loads(out)
        for key in ("mean_RT", "RT_over_logT", "lower_bound_constant", "ratio"):
            assert key in data
        assert data["ratio"] == pytest.approx(
            data["RT_over_logT"] / data["lower_bound_constant"], rel=1e-6
        )

    def test_one_block_instance_has_no_ratio(self, capsys, tmp_path):
        # no suboptimal block: the lower-bound constant is 0 and divides nothing
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"n": 2, "m": 2, "block_means": [0.9]}))
        code, out, err = run_cli(capsys, "bandit", str(path), "--policy", "cucb", "-T", "5")
        assert code == 0, err
        data = json.loads(out)
        assert data["mean_RT"] == 0.0
        assert data["lower_bound_constant"] == 0.0
        assert data["ratio"] is None

    def test_tied_best_block_has_no_constant(self, capsys, tmp_path):
        # the lower bound needs a unique best block: a tie leaves both fields null
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"n": 4, "m": 2, "block_means": [0.7, 0.7]}))
        code, out, err = run_cli(capsys, "bandit", str(path), "--policy", "cucb", "-T", "5")
        assert code == 0, err
        data = json.loads(out)
        assert data["lower_bound_constant"] is None
        assert data["ratio"] is None

    def test_trace_csv_deterministic(self, capsys, instance_file, tmp_path):
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(
            capsys, "--seed", "9", "bandit", instance_file, "--policy", "cts",
            "-T", "50", "--reps", "2", "--trace", str(t1),
        )
        run_cli(
            capsys, "--seed", "9", "bandit", instance_file, "--policy", "cts",
            "-T", "50", "--reps", "2", "--trace", str(t2),
        )
        assert t1.read_bytes() == t2.read_bytes()
        lines = t1.read_text().splitlines()
        assert lines[0] == "rep,t,action,cum_regret"
        assert len(lines) == 1 + 2 * 50
        rep, t, action, cum = lines[1].split(",")
        assert (rep, t) == ("0", "1")
        assert action in ("0", "1")

    def test_default_seed_constant(self):
        assert DEFAULT_SEED == 789001361
