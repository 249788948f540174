"""Command-line front door.

Subcommands compute bounds from JSON measure/spec files, run the
self-verification suites, or drive bandit experiments.  Results are
JSON on stdout (numbers at 9 significant digits unless --precision is
given); bandit traces are CSV.  Exit codes: 0 success, 1 verification
failure, 2 input error or a failed computation (an ArithmeticError).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .bandit import POLICIES, BanditInstance, lower_bound_constant, run_experiment
from .cgf import cgf_bound
from .kinf import kinf, tail_bound_single
from .measures import DPSpec, WeightedValues
from .sums import SumSpec, region_radius, sum_tail
from .verify import SUITES, run_suite

DEFAULT_SEED = int("D1R1CH", 36)  # fixed default stream: 789001361


def _fmt(x: float) -> float:
    return float(f"{x:.9g}")


def _plain(obj, full_precision: bool):
    """A result as JSON data: a record's fields in order, a measure as its
    atoms, and floats at 9 significant digits unless ``full_precision``."""
    if isinstance(obj, WeightedValues):
        obj = obj.to_dict()
    elif dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: _plain(v, full_precision) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v, full_precision) for v in obj]
    if isinstance(obj, float) and not full_precision:
        return _fmt(obj)
    return obj


def _emit(result, args) -> None:
    result = _plain(result, args.precision)
    if args.format == "csv":
        lines = ["key,value"]
        for k, v in result.items():
            if isinstance(v, (int, float, bool)) or v is None:
                lines.append(f"{k},{v}")
        print("\n".join(lines))
    else:
        print(json.dumps(result, indent=2))


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _measure(path: str) -> WeightedValues:
    return WeightedValues.from_dict(_load_json(path))


def _sum_spec(path: str) -> SumSpec:
    data = _load_json(path)
    return SumSpec(
        DPSpec(float(c["alpha"]), WeightedValues.from_dict(c["base"]))
        for c in data["components"]
    )


def write_trace(path, traces) -> None:
    """Write bandit ``traces`` to ``path`` as the trace CSV: columns
    rep,t,action,cum_regret, LF line ends, regrets at 9 significant digits."""
    rows = ["rep,t,action,cum_regret"]
    for rep, tr in enumerate(traces):
        for t in range(len(tr.actions)):
            rows.append(f"{rep},{t + 1},{int(tr.actions[t])},{_fmt(float(tr.cum_regret[t]))}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


def run_summary(instance: BanditInstance, policy: str, seed: int, traces) -> dict:
    """Summary of a bandit run: mean final regret, its ratio to log T and to
    the lower-bound constant (None where the best block mean is tied; the
    ratio also None where the constant is 0, with no suboptimal block)."""
    T, reps = len(traces[0].actions), len(traces)
    mean_rt = float(sum(tr.cum_regret[-1] for tr in traces)) / reps
    rt_over_logt = mean_rt / math.log(T) if T > 1 else math.inf
    try:
        constant = lower_bound_constant(instance)
    except ValueError:
        constant = None
    ratio = rt_over_logt / constant if constant else None
    return {"policy": policy, "T": T, "reps": reps, "seed": seed, "mean_RT": mean_rt,
            "RT_over_logT": rt_over_logt, "lower_bound_constant": constant, "ratio": ratio}


# -- subcommand handlers: each returns the record that main prints ---------


def _cmd_kinf(args):
    return kinf(_measure(args.measure), args.u)


def _cmd_bound(args):
    return cgf_bound(DPSpec(args.alpha, _measure(args.measure)))


def _cmd_tail(args):
    return {"value": tail_bound_single(DPSpec(args.alpha, _measure(args.measure)), args.u)}


def _cmd_region(args):
    return region_radius(_sum_spec(args.spec), args.delta)


def _cmd_sumtail(args):
    return sum_tail(_sum_spec(args.spec), args.u)


def _cmd_verify(args):
    return run_suite(args.suite, seed=args.seed, samples=args.samples)


def _cmd_bandit(args):
    instance = BanditInstance.from_dict(_load_json(args.instance))
    traces = run_experiment(instance, args.policy, args.T, args.reps, args.seed)
    if args.trace:
        write_trace(args.trace, traces)
    return run_summary(instance, args.policy, args.seed, traces)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpconc",
        description="Concentration bounds, samplers and bandit experiments "
        "for Dirichlet-process payoffs.",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument(
        "--precision", action="store_true", help="print full double precision"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kinf", help="half-space projection of a measure")
    p.add_argument("measure")
    p.add_argument("-u", type=float, required=True)
    p.set_defaults(handler=_cmd_kinf)

    p = sub.add_parser("bound", help="conjugate log-MGF bound")
    p.add_argument("measure")
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("tail", help="single-process Chernoff tail bound")
    p.add_argument("measure")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("-u", type=float, required=True)
    p.set_defaults(handler=_cmd_tail)

    p = sub.add_parser("region", help="confidence-region radius for a sum")
    p.add_argument("spec")
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(handler=_cmd_region)

    p = sub.add_parser("sumtail", help="tail bound for a sum of processes")
    p.add_argument("spec")
    p.add_argument("-u", type=float, required=True)
    p.set_defaults(handler=_cmd_sumtail)

    p = sub.add_parser("verify", help="run a self-verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--samples", type=int, default=None)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("bandit", help="run a semi-bandit experiment")
    p.add_argument("instance")
    p.add_argument("--policy", choices=POLICIES, required=True)
    p.add_argument("-T", type=int, required=True)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--trace", default=None, help="write the trace CSV here")
    p.set_defaults(handler=_cmd_bandit)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.handler(args)
        _emit(result, args)
    except (ValueError, KeyError, TypeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if args.command == "verify" and not result["passed"] else 0


if __name__ == "__main__":
    sys.exit(main())
