"""The benchmark's workloads: fixed work through pinchlab's public entry
points, with a verdict for every operation.

Each workload is built from the benchmark seed; one call of ``run`` does the
workload's fixed work once and returns an ``Outcome``.  Repeating ``run``
with the same seed repeats exactly the same work.  ``ready`` is the set-up a
user pays once per process: importing pinchlab and filling its first-use
caches (the Halton plane grid of the min-Sec search) with one tiny call of
each entry point the workload uses.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import ClassVar

from pinchlab import cli, curvature, minsec, models, profiles, reports

# Acceptance-criterion shapes (criteria 1-3): one list each, shared by the
# full-size and the tiny workloads.
TENSOR_EPS = (Fraction(0), Fraction(1, 24))
TENSOR_S = (Fraction(0), Fraction(1, 2), Fraction(1))
TENSOR_SEARCH = minsec.SearchOptions(grid_points=20_000, refine_starts=8)
PROFILE_DIMS = (3, 4, 5, 6)
PROFILE_EPS = (Fraction(-1, 10), Fraction(0), Fraction(1, 48), Fraction(1, 24))
PROFILE_S = (Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(7, 8), Fraction(1))
SEARCH_MODELS = ("fubini_study_cp2", "product_spheres", "round_cylinder_s3xr")
RATIO_TOL = 1e-6
REPORTS_ROOT = Path(".bench_tmp")   # under the checkout, removed when empty


@dataclass
class Outcome:
    """Verdicts of one repetition.

    ``failed`` counts wrong results; ``known_red`` counts operations that
    hit a defect the ROADMAP documents and expects to fix (they are failures
    in ``failed_frac`` but are kept apart so that the fix shows as a change).
    ``outputs`` is what the workload digest is taken over.
    """

    items: int = 0
    attempted: int = 0
    failed: int = 0
    known_red: int = 0
    problems: list = field(default_factory=list)
    outputs: list = field(default_factory=list)

    def attempt(self, label, operation, verdict, known_red=None):
        """Run one operation; exceptions and wrong verdicts are failures.

        ``verdict(result)`` returns ``(problem or None, items)``.
        ``known_red`` is the exception type of a documented defect.
        """
        self.attempted += 1
        try:
            result = operation()
        except Exception as exc:   # one operation's error must not end the run
            red = known_red is not None and isinstance(exc, known_red)
            self.known_red += red
            self.failed += not red
            self.outputs.append({"op": label, "raised": type(exc).__name__})
            self.problems.append(
                f"{label}: {'known red, ' if red else ''}{type(exc).__name__}: {exc}")
            return
        problem, items = verdict(result)
        self.outputs.append({"op": label, "result": result})
        if problem is None:
            self.items += items
        else:
            self.failed += 1
            self.problems.append(f"{label}: {problem}")


def _digestible(obj):
    """Report objects with an ``as_dict`` method as plain JSON-able data."""
    return obj.as_dict() if hasattr(obj, "as_dict") else obj


@dataclass(frozen=True)
class TensorCampaign:
    """Criterion-3 tensor campaign at n=4, a smaller one at n=5, and the
    numerical min-Sec search on the three models with a degenerate or
    pinched minimum.  An item is one verified shifted tensor."""

    n4_count: int = 20
    n5_count: int = 5
    name: ClassVar[str] = "tensor-campaign"
    # host-speed kernel parts: L-BFGS on short vectors, grid scoring on long ones
    hot_paths: ClassVar[tuple] = ("short_vectors", "long_vector")

    def ready(self):
        for n, opts in ((4, TENSOR_SEARCH), (5, TENSOR_SEARCH), (4, minsec.SearchOptions())):
            tiny = minsec.SearchOptions(grid_points=opts.grid_points, refine_starts=1)
            minsec.min_sectional(curvature.random_curvature(n, [0], curvature.FLOAT), tiny)

    def run(self, seed):
        out = Outcome()
        for n, count in ((4, self.n4_count), (5, self.n5_count)):
            for eps in TENSOR_EPS:
                config = profiles.CampaignConfig(
                    kind="tensor", dims=(n,), eps_list=(eps,), s_list=TENSOR_S,
                    count=count, seed=seed, mode=curvature.FLOAT, search=TENSOR_SEARCH)
                out.attempt(f"tensor n={n} eps={eps}",
                            lambda: profiles.mc_campaign(config),
                            lambda rep, count=count: _tensor_verdict(rep, count))
        for name in SEARCH_MODELS:
            geometry = models.model(name)
            out.attempt(f"search {name}",
                        lambda: models.pinching_threshold(geometry, use_search=True),
                        lambda rep, g=geometry: _search_verdict(rep, g))
        return out


def _tensor_verdict(report, count):
    check = report["checks"][0]
    if report["violations"]:
        return f"{len(report['violations'])} violations", 0
    if check["minSecRecheckPassed"] != count:
        return f"min-Sec recheck {check['minSecRecheckPassed']}/{count}", 0
    return None, count


def _search_verdict(report, geometry):
    closed = models.pinching_threshold(geometry)
    error = abs(float(report.ratio) - float(closed.ratio))
    if error > RATIO_TOL:
        return f"ratio {report.ratio} is {error:.3g} from {closed.ratio}", 0
    return None, 0


@dataclass(frozen=True)
class ProfileCampaign:
    """Criteria 1-2: both profile lanes, once per subcritical combo.
    An item is one profile in one lane."""

    count: int = 100_000
    name: ClassVar[str] = "profile-campaign"
    # host-speed kernel parts: both lanes are vectorized over 10^5 profiles
    hot_paths: ClassVar[tuple] = ("long_vector",)

    def ready(self):
        profiles.profile_batch_float(4, PROFILE_EPS[0], PROFILE_S, 1, 0)
        profiles.profile_batch_exact(4, PROFILE_EPS[0], 1, 0)

    def run(self, seed):
        out = Outcome()
        for n in PROFILE_DIMS:
            for eps in PROFILE_EPS:
                if eps * n * (n - 1) >= 1:
                    continue    # outside the sampler domain, as in mc_campaign
                out.attempt(f"profile n={n} eps={eps}",
                            lambda: {"float": profiles.profile_batch_float(
                                         n, eps, PROFILE_S, self.count, seed),
                                     "exact": profiles.profile_batch_exact(
                                         n, eps, self.count, seed)},
                            _profile_verdict)
        return out


def _profile_verdict(lanes):
    problems = [f"{lane} lane violations" for lane in ("float", "exact")
                if lanes[lane]["violations"]]
    if not lanes["exact"]["slackIdentityExact"]:
        problems.append("exact slack identity broken")
    if problems:
        return "; ".join(problems), 0
    return None, lanes["float"]["count"] + lanes["exact"]["count"]


MODEL_NAMES = ("flat", "fubini_study_cp2", "product_spheres",
               "round_cylinder_s3xr", "sphere")
# (arguments, expected exit code, exception type of a documented defect).
# optimize-q2 and all exit 1 on the known-red eps < 1/36 branch of Q2
# (README "Known red").  The verify-estimates command is the exact-lane
# overflow reproducer of ROADMAP item 5; it raises OverflowError today.
CLI_FULL = (
    (("expand-fsq",), 0, None),
    (("optimize-q2", "--eps", "0", "--eps", "1/48", "--eps", "1/24",
      "--eps", "1/16"), 1, None),
    (("identities",), 0, None),
    (("models", "--format", "json"), 0, None),
    *((("model", name), 0, None) for name in MODEL_NAMES),
    (("all",), 1, None),
    (("verify-estimates", "--n", "6", "--eps", "1/1000", "--count", "5000"),
     0, OverflowError),
)


@dataclass(frozen=True)
class CliExact:
    """In-process ``pinchlab.cli.main`` over a fixed command list, reports
    written to a fresh directory each run.  An item is a command that
    finished with its expected exit code."""

    commands: tuple = CLI_FULL
    name: ClassVar[str] = "cli-exact"
    # host-speed kernel parts: the Fraction model sampler, Nelder-Mead on short vectors
    hot_paths: ClassVar[tuple] = ("fractions", "short_vectors")

    def ready(self):
        cli.build_parser()

    def run(self, seed):
        out = Outcome()
        REPORTS_ROOT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=REPORTS_ROOT) as reports_dir:
            for args, expected, known_red in self.commands:
                argv = [*args, "--seed", str(seed), "--out", reports_dir]
                out.attempt(" ".join(args), lambda: _run_cli(argv),
                            lambda res, e=expected: _exit_verdict(res, e),
                            known_red=known_red)
        with contextlib.suppress(OSError):   # another run may still use it
            REPORTS_ROOT.rmdir()
        return out


def _run_cli(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    try:
        printed = json.loads(stdout.getvalue())
    except json.JSONDecodeError:
        printed = stdout.getvalue()
    return {"exit": code, "stdout": printed}


def _exit_verdict(result, expected):
    if result["exit"] != expected:
        return f"exit code {result['exit']}, expected {expected}", 0
    return None, 1


WORKLOADS = {w.name: w for w in (TensorCampaign(), ProfileCampaign(), CliExact())}

TINY = {
    "tensor-campaign": TensorCampaign(n4_count=2, n5_count=1),
    "profile-campaign": ProfileCampaign(count=200),
    "cli-exact": CliExact(commands=(
        (("expand-fsq", "--models", "4", "--coeffs", "4"), 0, None),
        (("optimize-q2", "--eps", "1/24", "--grid", "5"), 0, None),
        (("models", "--format", "json"), 0, None),
        (("model", "sphere"), 0, None),
        (("verify-estimates", "--n", "6", "--eps", "1/1000", "--count", "5000"),
         0, OverflowError),
    )),
}


def digest(outcome):
    """The workload's output digest (volatile fields such as wallTime dropped)."""
    return reports.report_digest(
        [{k: _digestible(v) for k, v in entry.items()} for entry in outcome.outputs])
