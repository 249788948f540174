"""Span tracing of dpconc from outside the program.

``Tracer.install`` replaces each traced public function with a timing wrapper
by rebinding module attributes: every dpconc module attribute that is the
original function object (including copies made by ``from .x import f``) is
pointed at the wrapper, and ``uninstall`` restores them.  A wrapper appends a
span [name, start, end, parent] to an in-memory list; nothing is written
until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time

TRACED = {
    "measures": ("canonicalize", "kl_discrete"),
    "kinf": ("kinf", "kinf_inverse"),
    "cgf": ("cgf_bound", "cgf_bound_scaled"),
    "sums": ("region_radius", "sum_tail_bound", "optimal_split"),
    "bandit": ("run_experiment", "cts_step", "cucb_kl_step", "escb_kl_step"),
    "sampler": ("sample_stick_breaking", "sample_payoff_means", "qk_rk", "mc_log_mgf"),
    "verify": ("run_suite", "min_scaled_conjugate", "chernoff_minimum_gamma"),
    "cli": ("main",),
}

# (metric, counted span, ancestor it must sit under, span whose calls divide)
RATIOS = (
    ("kinf.kinf_per_index", "kinf.kinf", ("kinf.kinf_inverse",), "kinf.kinf_inverse"),
    (
        "cgf.canonicalize_per_cgf_bound",
        "measures.canonicalize",
        ("cgf.cgf_bound", "cgf.cgf_bound_scaled"),
        "cgf.cgf_bound",
    ),
    ("sums.cgf_bound_per_region", "cgf.cgf_bound", ("sums.region_radius",), "sums.region_radius"),
    ("sums.kinf_per_sumtail", "kinf.kinf", ("sums.sum_tail_bound",), "sums.sum_tail_bound"),
    (
        "bandit.kinf_inverse_per_round",
        "kinf.kinf_inverse",
        ("bandit.cucb_kl_step",),
        "bandit.cucb_kl_step",
    ),
    ("bandit.cgf_bound_per_round", "cgf.cgf_bound", ("bandit.escb_kl_step",), "bandit.escb_kl_step"),
)

# only direct parents count for the canonicalize ratio: a witness canonicalize
# under cgf_bound, plus the payoff rescaling done by cgf_bound_scaled
_DIRECT_ONLY = {"cgf.canonicalize_per_cgf_bound"}


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    """Collects spans from wrapped dpconc functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def install(self) -> None:
        """Wrap every function in TRACED among the dpconc modules already imported."""
        modules = [m for k, m in list(sys.modules.items()) if k == "dpconc" or k.startswith("dpconc.")]
        for mod_name, fns in TRACED.items():
            owner = sys.modules.get(f"dpconc.{mod_name}")
            if owner is None:
                continue
            for fn_name in fns:
                original = getattr(owner, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def summarize(spans: list[list]) -> dict:
    """Calls and self time per span name, plus the RATIOS numerators.

    Self time is a span's duration minus the durations of its direct
    children; calls are synchronous, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
    under: dict[str, int] = {}
    for metric, counted, ancestors, _ in RATIOS:
        n = 0
        for name, _, _, parent in spans:
            if name != counted:
                continue
            while parent >= 0:
                if spans[parent][0] in ancestors:
                    n += 1
                    break
                if metric in _DIRECT_ONLY:
                    break
                parent = spans[parent][3]
        under[metric] = n
    return {"calls": calls, "self_s": self_s, "under": under}


def unit_of(metric: str) -> str:
    if metric.endswith(".calls"):
        return "count"
    return "s" if metric.endswith("_s") else "ratio"


def merge(summaries: list[dict]) -> dict:
    out = {"calls": {}, "self_s": {}, "under": {}}
    for s in summaries:
        for key in out:
            for name, value in s[key].items():
                out[key][name] = out[key].get(name, 0) + value
    return out


def layer_metrics(total: dict, extra: dict) -> dict:
    """Per-layer metric values from a merged summary; ``extra`` adds timings."""
    calls, self_s, under = total["calls"], total["self_s"], total["under"]
    out = {}
    for name in span_names():
        if name == "cli.main":
            out["cli.main.self_s"] = self_s.get(name, 0.0)
            continue
        if name != "bandit.run_experiment":
            out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for metric, _, _, denominator in RATIOS:
        d = calls.get(denominator, 0)
        out[metric] = under.get(metric, 0) / d if d else 0.0
    out.update(extra)
    return out
