"""Per-layer tracing for the benchmark.

The tracer wraps pinchlab functions from the outside: while installed, every
module attribute bound to a wrapped function is replaced by a timing wrapper,
and the original is put back on exit.  Nothing under ``src/`` is edited.

A layer's *busy* time is the wall time spent inside its wrapped calls; its
*self* time is busy time minus the part covered by wrapped calls it makes.
A wrapped name that no longer exists (renamed or removed by a refactor) is
recorded in ``Tracer.absent`` and reported as zero, never as a crash.
"""

from __future__ import annotations

import importlib
import math
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Wrap:
    """One traced function: ``pinchlab.<module>.<attr>``, recorded as ``key``.

    ``label(args, kwargs)`` names a sub-span (for example the dimension), and
    ``extra(args, kwargs, result)`` returns counters to add for one call.
    A function defined in ``pinchlab.<module>`` is replaced wherever pinchlab
    binds it; a foreign one (scipy's ``minimize``) only in that module.
    """

    module: str
    attr: str
    key: str
    label: Callable | None = None
    extra: Callable | None = None


@dataclass
class Stat:
    calls: int = 0
    busy: float = 0.0
    own: float = 0.0
    durations: list = field(default_factory=list)
    counters: dict = field(default_factory=lambda: defaultdict(int))


def _dimension_label(args, kwargs):
    return f"n{(args[0] if args else kwargs['Rm']).n}"


def _command_label(args, kwargs):
    return (args[0] if args else kwargs["argv"])[0]


def _minimize_counters(args, kwargs, res):
    return {"nfev": res.nfev, "success": int(bool(res.success))}


def _profile_counters(args, kwargs, result):
    return {"profiles": result["count"]}


WRAPS = (
    Wrap("minsec", "min_sectional", "minsec.min_sectional", label=_dimension_label),
    Wrap("minsec", "grid_sectionals", "minsec.grid_sectionals"),
    Wrap("minsec", "minimize", "minsec.lbfgs", extra=_minimize_counters),
    Wrap("minsec", "shift_to_pinching", "minsec.shift_to_pinching"),
    Wrap("curvature", "random_curvature", "curvature.random_curvature"),
    Wrap("curvature", "invariants", "curvature.invariants"),
    Wrap("profiles", "check_estimates", "profiles.check_estimates"),
    Wrap("profiles", "mc_campaign", "profiles.mc_campaign"),
    Wrap("profiles", "profile_batch_float", "profiles.profile_batch_float",
         extra=_profile_counters),
    Wrap("profiles", "profile_batch_exact", "profiles.profile_batch_exact",
         extra=_profile_counters),
    Wrap("ftensor", "sample_gradient_model", "ftensor.sample_gradient_model"),
    Wrap("ftensor", "expansion_campaign", "ftensor.expansion_campaign"),
    Wrap("ftensor", "optimize_q2", "ftensor.optimize_q2"),
    Wrap("ftensor", "q2", "ftensor.q2"),
    Wrap("ftensor", "minimize", "ftensor.nelder_mead", extra=_minimize_counters),
    Wrap("models", "pinching_threshold", "models.pinching_threshold"),
    Wrap("models", "soliton_identity_check", "models.soliton_identity_check"),
    Wrap("models", "literature_table", "models.literature_table"),
    Wrap("reports", "report_digest", "reports.report_digest"),
    Wrap("reports", "emit", "reports.emit",
         extra=lambda args, kwargs, result: {"bytes": len(result)}),
    Wrap("reports", "persist", "reports.persist"),
    Wrap("cli", "main", "cli.main", label=_command_label),
)


class Tracer:
    """Collects call counts, busy and self time for the wrapped functions."""

    def __init__(self, wraps=WRAPS):
        self.wraps = wraps
        self.stats = defaultdict(Stat)
        self.absent = []
        self._stack = []

    @contextmanager
    def installed(self):
        """Patch every binding of the wrapped functions; restore on exit."""
        patched = []
        self.absent = []
        try:
            for spec in self.wraps:
                sites = _binding_sites(spec)
                if not sites:
                    self.absent.append(f"pinchlab.{spec.module}.{spec.attr}")
                    continue
                wrapper = self._wrapper(spec, getattr(*sites[0]))
                for owner, name in sites:
                    patched.append((owner, name, getattr(owner, name)))
                    setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in reversed(patched):
                setattr(owner, name, original)

    def _wrapper(self, spec, original):
        stack, stats = self._stack, self.stats

        def traced(*args, **kwargs):
            frame = [0.0]   # time covered by wrapped calls made from here
            stack.append(frame)
            started = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat = stats[spec.key]
                stat.calls += 1
                stat.busy += elapsed
                stat.own += elapsed - frame[0]
                label = _safely(spec.label, args, kwargs)
                if label is not None:
                    sub = stats[f"{spec.key}.{label}"]
                    sub.calls += 1
                    sub.busy += elapsed
                    sub.durations.append(elapsed)
            for name, value in (_safely(spec.extra, args, kwargs, result) or {}).items():
                stats[spec.key].counters[name] += value
            return result

        traced.__wrapped__ = original
        return traced


def _safely(fn, *args):
    """A label or counter that no longer fits the call's shape is skipped."""
    if fn is None:
        return None
    try:
        return fn(*args)
    except (AttributeError, IndexError, KeyError, TypeError):
        return None


def _binding_sites(spec):
    try:
        home = importlib.import_module(f"pinchlab.{spec.module}")
    except ImportError:
        return []
    original = getattr(home, spec.attr, None)
    if original is None:
        return []
    if getattr(original, "__module__", None) != home.__name__:
        return [(home, spec.attr)]
    return [(mod, name)
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "pinchlab"
                                    or mod_name.startswith("pinchlab."))
            for name, value in list(vars(mod).items()) if value is original]


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

CLI_COMMANDS = ("expand-fsq", "optimize-q2", "identities", "models", "model",
                "all", "verify-estimates")

TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10


def percentile(ordered, pct):
    """Nearest-rank percentile of sorted values."""
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def tail(durations):
    """(value, percentile) at the highest of TAIL_PERCENTILES with at least
    TAIL_BEYOND calls beyond it; (0.0, 0) when there are too few calls."""
    ordered = sorted(durations)
    for pct in TAIL_PERCENTILES:
        if len(ordered) - math.ceil(pct / 100 * len(ordered)) >= TAIL_BEYOND:
            return percentile(ordered, pct), pct
    return 0.0, 0


def _per_rep(stats):
    """Metrics read from one traced repetition of the fixed work."""
    def stat(key):
        return stats.get(key, Stat())

    def calls(key):
        return stat(key).calls

    def busy(key):
        return stat(key).busy

    def own(key):
        return stat(key).own

    def counter(key, name):
        return stat(key).counters.get(name, 0)

    def per_second(key):
        seconds = busy(key)
        return counter(key, "profiles") / seconds if seconds > 0 else 0.0

    starts = calls("minsec.lbfgs")
    out = {
        "minsec.min_sectional.calls": calls("minsec.min_sectional"),
        "minsec.min_sectional.n4.calls": calls("minsec.min_sectional.n4"),
        "minsec.min_sectional.n5.calls": calls("minsec.min_sectional.n5"),
        "minsec.min_sectional.self_s": own("minsec.min_sectional"),
        "minsec.grid_sectionals.self_s": own("minsec.grid_sectionals"),
        "minsec.lbfgs.starts": starts,
        "minsec.lbfgs.nfev": counter("minsec.lbfgs", "nfev"),
        "minsec.lbfgs.busy_s": busy("minsec.lbfgs"),
        "minsec.lbfgs.converged_frac":
            counter("minsec.lbfgs", "success") / starts if starts else 0.0,
        "minsec.shift_to_pinching.calls": calls("minsec.shift_to_pinching"),
        "curvature.random_curvature.busy_s": busy("curvature.random_curvature"),
        "curvature.invariants.calls": calls("curvature.invariants"),
        "curvature.invariants.busy_s": busy("curvature.invariants"),
        "profiles.check_estimates.calls": calls("profiles.check_estimates"),
        "profiles.check_estimates.self_s": own("profiles.check_estimates"),
        "profiles.mc_campaign.self_s": own("profiles.mc_campaign"),
        "profiles.profile_batch_float.busy_s": busy("profiles.profile_batch_float"),
        "profiles.profile_batch_float.profiles_per_s":
            per_second("profiles.profile_batch_float"),
        "profiles.profile_batch_exact.busy_s": busy("profiles.profile_batch_exact"),
        "profiles.profile_batch_exact.profiles_per_s":
            per_second("profiles.profile_batch_exact"),
        "ftensor.sample_gradient_model.calls": calls("ftensor.sample_gradient_model"),
        "ftensor.sample_gradient_model.busy_s": busy("ftensor.sample_gradient_model"),
        "ftensor.expansion_campaign.self_s": own("ftensor.expansion_campaign"),
        "ftensor.optimize_q2.busy_s": busy("ftensor.optimize_q2"),
        "ftensor.q2.calls": calls("ftensor.q2"),
        "ftensor.nelder_mead.starts": calls("ftensor.nelder_mead"),
        "ftensor.nelder_mead.nfev": counter("ftensor.nelder_mead", "nfev"),
        "models.pinching_threshold.busy_s": busy("models.pinching_threshold"),
        "models.soliton_identity_check.busy_s": busy("models.soliton_identity_check"),
        "models.literature_table.busy_s": busy("models.literature_table"),
        "reports.report_digest.calls": calls("reports.report_digest"),
        "reports.report_digest.busy_s": busy("reports.report_digest"),
        "reports.emit.busy_s": busy("reports.emit"),
        "reports.emit.bytes": counter("reports.emit", "bytes"),
        "reports.persist.busy_s": busy("reports.persist"),
        "reports.persist.files": calls("reports.persist"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": own("cli.main"),
    }
    for command in CLI_COMMANDS:
        out[f"cli.{command}.busy_s"] = busy(f"cli.main.{command}")
    return out


def layer_metrics(tracers):
    """Per-layer metrics over traced repetitions of the same fixed work.

    Counts and times are per repetition (the median over repetitions); the
    min-Sec latency percentiles pool every call of every repetition.
    """
    reps = [_per_rep(t.stats) for t in tracers]
    out = {name: statistics.median(rep[name] for rep in reps) for name in reps[0]}
    for dim in ("n4", "n5"):
        durations = [d for t in tracers
                     for d in t.stats.get(f"minsec.min_sectional.{dim}", Stat()).durations]
        value, pct = tail(durations)
        out[f"minsec.min_sectional.{dim}.p50_ms"] = (
            1e3 * percentile(sorted(durations), 50) if durations else 0.0)
        out[f"minsec.min_sectional.{dim}.tail_ms"] = 1e3 * value
        out[f"minsec.min_sectional.{dim}.tail_pct"] = pct
    out["trace.absent"] = len(tracers[0].absent)
    return out
