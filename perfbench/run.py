"""Run one benchmark workload and print its metrics as a JSON last line.

    python3 perfbench/run.py --workload bounds --seed 1 --seconds 20 --trace 0

Run from the root of a checkout of the repository: the program is imported
from ``src/``.  The workload's units repeat round-robin, in whole rounds,
until ``--seconds`` have passed (and at least three rounds ran), with a
fixed calibration run between every two units; a unit's time is the median of
its duration over the calibration's (see ``run_units``).  With ``--trace 0``
the result holds the end-to-end metrics; with ``--trace 1`` the dpconc
functions are wrapped in timing spans, the result holds the per-layer
metrics and the spans go to ``.perfbench_out/``.  Correctness checks and the known-fault probes run after the timed
loop.  Lines before the last one, prefixed with ``#``, give per-kind figures,
known faults and any failed checks.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# one BLAS/OpenMP thread, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
MIN_ROUNDS = 3
WORKLOADS = ("bounds", "bandit", "montecarlo")


def run_units(workload, seconds: float, recorder):
    """Repeat the units round-robin, a calibration between every two.

    A unit's time is the median over its repeats of its duration divided by
    the faster of the calibrations just before and after it, in units of
    CALIBRATION_S: a slowdown of the whole machine stretches both and
    cancels.  Returns (normalized time per unit, fastest raw time per unit,
    first output, last output, rounds, span summary and spans of each unit's
    fastest repeat when traced).
    """
    from calibrate import CALIBRATION_S, calibration
    from tracer import summarize

    clock = time.perf_counter
    ratios = {u.name: [] for u in workload.units}
    best, first, last, layer, spans_of = {}, {}, {}, {}, {}
    rounds = 0
    start = clock()
    cal_before = calibration()
    while True:
        for unit in workload.units:
            t = clock()
            out = unit.run()
            dt = clock() - t
            cal_after = calibration()
            ratios[unit.name].append(dt / min(cal_before, cal_after))
            cal_before = cal_after
            (last if unit.name in first else first)[unit.name] = out
            spans = recorder.take() if recorder is not None else None
            if dt < best.get(unit.name, math.inf):
                best[unit.name] = dt
                if spans is not None:
                    layer[unit.name] = summarize(spans)
                    spans_of[unit.name] = spans
        rounds += 1
        if rounds >= MIN_ROUNDS and clock() - start >= seconds:
            break
    norm = {name: statistics.median(r) * CALIBRATION_S for name, r in ratios.items()}
    return norm, best, first, last, rounds, layer, spans_of


def kind_figures(workload, times: dict) -> dict:
    """Per operation kind: (metric name, unit, value, pass time of the kind)."""
    out = {}
    for kind, (metric, unit) in workload.kinds.items():
        members = [u for u in workload.units if u.kind == kind]
        t = sum(times[u.name] for u in members)
        work = sum(u.work for u in members)
        out[kind] = (metric, unit, work / t if unit == "1/s" else t / work, t)
    return out


def fresh_import_s(module: str, env: dict) -> float:
    """Fastest of three fresh-interpreter imports of ``module``."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    times = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip()))
    return min(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dpconc", "__init__.py")):
        print(f"error: no program at {SRC}/dpconc; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    workload = workloads.BUILDERS[args.workload](args.seed)
    setup_raw_s = time.perf_counter() - T0
    # benchmark modules load only now, so set-up counts the program alone
    import tracer
    from calibrate import CALIBRATION_S, calibration

    setup_s = setup_raw_s * CALIBRATION_S / min(calibration() for _ in range(3))

    recorder = tracer.Tracer() if args.trace else None
    if recorder is not None:
        recorder.install()
    try:
        norm, best, first, last, rounds, layer, spans_of = run_units(
            workload, args.seconds, recorder)
    finally:
        if recorder is not None:
            recorder.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    probe_ops, failed, probe_notes = workload.probe()
    check_ops, bad = workload.check(first, last)

    kinds = kind_figures(workload, norm)
    pass_s = sum(norm.values())
    kind_geomean_s = math.exp(sum(math.log(k[3]) for k in kinds.values()) / len(kinds))
    print(f"# {args.workload}: seed {args.seed}, {rounds} rounds of {len(workload.units)} units,"
          f" trace {args.trace}")
    for metric, unit, value, _ in kinds.values():
        print(f"# {metric} {value!r} {unit}")
    print(f"# pass_s {pass_s!r} s; kind_geomean_s {kind_geomean_s!r} s;"
          f" sum of fastest raw repeats {sum(best.values())!r} s; raw setup {setup_raw_s!r} s")
    for note in probe_notes:
        print(f"# known fault: {note}")
    for note in bad[:20]:
        print(f"# CHECK FAILED: {note}")
        print(f"check failed: {note}", file=sys.stderr)

    if args.trace:
        extra = {"cli.import_s": 0.0, "cli.package_import_s": 0.0}
        if args.workload == "montecarlo":
            env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
            extra = {"cli.import_s": fresh_import_s("dpconc.cli", env),
                     "cli.package_import_s": fresh_import_s("dpconc", env)}
        values = tracer.layer_metrics(tracer.merge(list(layer.values())), extra)
        metrics = {name: {"value": v, "unit": tracer.unit_of(name)} for name, v in values.items()}
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for name, spans in spans_of.items():
                fh.write(json.dumps({"unit": name, "spans": spans}) + "\n")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "kind_geomean_s": {"value": kind_geomean_s, "unit": "s"},
        }
    result = {
        "correct": not bad,
        "attempted": check_ops + probe_ops,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
