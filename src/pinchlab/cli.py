"""Command-line front end.

Exit codes: 0 all checks passed, 1 at least one mathematical violation
(report still written), 2 usage or internal error (any exception other
than argparse's own exit, reported as one "error:" line).  Reports are appended to
the output directory as timestamped JSON and never overwritten.  The default
seed comes from PINCHLAB_SEED; a JSON config file can mirror any flag, with
flags taking precedence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__
from .ftensor import (
    CLAIMED_POINT,
    Q2_CROSSOVER,
    expansion_campaign,
    optimal_b,
    optimize_q2,
    q2_claimed_value,
)
from .minsec import DegenerateEpsError, pinched, require_subcritical
from .models import (
    default_models,
    literature_table,
    model,
    model_names,
    pinching_threshold,
    soliton_identity_check,
)
from .profiles import DISTRIBUTIONS, CampaignConfig, estimate_coefficients, mc_campaign
from .reports import emit, persist, report_digest
from .scalars import RATIONAL, FLOAT, parse_scalar, scalar_to_json

EXIT_OK, EXIT_VIOLATION, EXIT_USAGE = 0, 1, 2


def non_negative_int(text):
    """A seed from its text: an integer >= 0, as numpy's generators take."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError("not an integer") from None
    if value < 0:
        raise ValueError("negative")
    return value


def _env_seed():
    """The default seed: PINCHLAB_SEED, or 0 when it is unset."""
    text = os.environ.get("PINCHLAB_SEED", "0")
    try:
        return non_negative_int(text)
    except ValueError as exc:
        raise ValueError(f"PINCHLAB_SEED = {text!r}: {exc}") from None


def build_parser(explicit_only=False):
    """The argument parser.  With explicit_only every default is SUPPRESS, so
    a parse yields just the flags given on the command line."""
    def default(value):
        return argparse.SUPPRESS if explicit_only else value

    p = argparse.ArgumentParser(prog="pinchlab",
                                description="curvature-pinching verification toolkit")
    p.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=non_negative_int, default=default(_env_seed()))
    common.add_argument("--out", default=default(None), help="report output directory")
    common.add_argument("--config", default=default(None),
                        help="JSON file mirroring flags; flags take precedence")
    arithmetic = argparse.ArgumentParser(add_help=False)
    arithmetic.add_argument("--arithmetic", choices=[RATIONAL, FLOAT],
                            default=default(RATIONAL))

    sub = p.add_subparsers(dest="command", required=True)

    ve = sub.add_parser("verify-estimates", parents=[common, arithmetic],
                        help="Monte Carlo verification of both estimates")
    ve.add_argument("--n", type=int, action="append", default=default(None))
    ve.add_argument("--eps", type=parse_scalar, action="append", default=default(None))
    ve.add_argument("--s", type=parse_scalar, action="append", default=default(None))
    ve.add_argument("--count", type=int, default=default(1000))
    ve.add_argument("--kind", choices=["profile", "tensor"], default=default("profile"))
    ve.add_argument("--distribution", choices=DISTRIBUTIONS, default=default("half-normal"))

    oq = sub.add_parser("optimize-q2", parents=[common],
                        help="exact global maximum of the Q2 functional")
    oq.add_argument("--eps", type=parse_scalar, action="append", default=default(None))
    # inert: the maximum is exact, no grid is searched; still parsed because
    # the benchmark's tiny cli-exact command list passes --grid (ROADMAP item 1)
    oq.add_argument("--grid", type=int, default=default(None), help=argparse.SUPPRESS)

    ef = sub.add_parser("expand-fsq", parents=[common],
                        help="exact |F|^2 direct-vs-formula campaign")
    ef.add_argument("--models", type=int, default=default(1000))
    ef.add_argument("--coeffs", type=int, default=default(100))

    mo = sub.add_parser("model", parents=[common],
                        help="threshold report and identities for one model")
    mo.add_argument("name", choices=model_names())
    mo.add_argument("--eps", type=parse_scalar, default=default(Fraction(1, 24)))

    ms = sub.add_parser("models", parents=[common],
                        help="literature comparison table over all models")
    ms.add_argument("--format", choices=["json", "csv", "text"], default=default("text"))

    sub.add_parser("identities", parents=[common],
                   help="soliton identity residuals on every model")
    sub.add_parser("all", parents=[common, arithmetic],
                   help="run every check with default settings")
    return p


def _apply_config_file(parser, args, argv):
    if not args.config:
        return args
    with open(args.config) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config {args.config}: expected a JSON object")
    explicit = vars(build_parser(explicit_only=True).parse_args(argv))
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a for a in commands.choices[args.command]._actions
             if hasattr(args, a.dest)}
    for key, value in data.items():
        attr = key.replace("-", "_")
        if attr not in flags:
            raise ValueError(f"config {key!r}: {args.command} has no such flag")
        if attr not in explicit:
            setattr(args, attr, _config_value(key, flags[attr], value))
    return args


def _config_value(key, flag, value):
    """A config-file value of a flag, converted and checked like its
    command-line text; a flag taken repeatedly accepts a list or one value."""
    if not isinstance(flag, argparse._AppendAction):
        return _config_scalar(key, flag, value)
    return [_config_scalar(key, flag, v) for v in (value if isinstance(value, list) else [value])]


def _config_scalar(key, flag, value):
    if isinstance(value, (bool, dict, list)) or value is None:
        raise ValueError(f"config {key!r}: expected a number or a string, "
                         f"got {json.dumps(value)}")
    try:
        value = flag.type(str(value)) if flag.type else str(value)
    except ValueError as exc:
        raise ValueError(f"config {key!r}: {exc}") from exc
    if flag.choices is not None and value not in flag.choices:
        raise ValueError(f"config {key!r}: {value!r} is not one of "
                         f"{', '.join(map(str, flag.choices))}")
    return value


def _finish(report, args, stem):
    """Print the report in args.format (JSON where a command has no
    --format), persist it as JSON under the digest it prints, and return
    the exit code."""
    payload = dict(report)
    payload["toolVersion"] = __version__
    payload["digest"] = report_digest(report)
    sys.stdout.write(emit(payload, getattr(args, "format", "json")).decode())
    if args.out:
        persist(payload, args.out, stem=stem)
    violated = bool(payload.get("violations"))
    return EXIT_VIOLATION if violated else EXIT_OK


def cmd_verify_estimates(args):
    dims = tuple(args.n or [4])
    eps_list = tuple(args.eps if args.eps is not None else [Fraction(1, 24)])
    s_list = tuple(args.s if args.s is not None else
                   [Fraction(0), Fraction(1, 2), Fraction(1)])
    config = CampaignConfig(
        kind=args.kind, dims=dims, eps_list=eps_list, s_list=s_list,
        count=args.count, seed=args.seed, mode=args.arithmetic,
        distribution=args.distribution)
    for n in dims:
        for eps in eps_list:
            require_subcritical(n, eps)
            if not all(math.isfinite(c) for estimate in estimate_coefficients(n, float(eps))
                       for c in estimate):
                raise ValueError(f"--eps {float(eps):g}: the estimates' coefficients at "
                                 f"n = {n} are beyond the float range")
    report = mc_campaign(config)
    return _finish(report, args, "verify-estimates")


def _q2_result(eps):
    """(report entry, violated) for the exact maximum of Q2 at eps: violated
    when it differs from the reference value or Q2 is not stationary there.
    Stationarity is certified exactly by the form N = alpha I + beta J of
    q2_form: Q2 is stationary at the argmax when b = optimal_b(a1, a2), its
    maximum over b, and z = (1, a1, a2) is an eigenvector, N z = value z,
    so that the Rayleigh quotient z^T N z / |z|^2 is stationary in (a1, a2).
    gradNorm is the largest residual of these equations.  ValueError if the
    report's floats cannot hold the maximum."""
    arg, value = found = optimize_q2(eps)
    claimed = q2_claimed_value(eps)
    alpha, beta = found.form
    z = (1, arg.a1, arg.a2)
    residuals = [alpha * zk + beta * sum(z) - value * zk for zk in z]
    best_b = optimal_b(arg.a1, arg.a2)
    residuals += [b - best for b, best in zip((arg.b1, arg.b2, arg.b3), best_b)]
    gnorm = max(abs(r) for r in residuals)
    entry = {
        "eps": scalar_to_json(eps),
        "branch": found.branch,
        "crossover": scalar_to_json(Q2_CROSSOVER),
        "argmax": arg.as_dict(),
        "claimedValue": scalar_to_json(claimed),
    }
    try:
        entry.update(value=float(value), gradNorm=float(gnorm), delta=float(value - claimed))
    except OverflowError:
        raise ValueError(f"--eps {float(eps):g}: the maximum of Q2 is beyond the "
                         "float range") from None
    return entry, value != claimed or gnorm != 0


def cmd_optimize_q2(args):
    eps_list = args.eps if args.eps is not None else [Fraction(1, 24)]
    checked = [_q2_result(eps) for eps in eps_list]
    report = {"results": [entry for entry, _ in checked],
              "violations": [entry for entry, violated in checked if violated],
              "claimedPoint": CLAIMED_POINT.as_dict()}
    return _finish(report, args, "optimize-q2")


def cmd_expand_fsq(args):
    report = expansion_campaign(args.models, args.coeffs, args.seed)
    return _finish(report, args, "expand-fsq")


def cmd_model(args):
    m = model(args.name)
    rep = pinching_threshold(m)
    payload = {
        "threshold": rep.as_dict(),
        "epsQueried": scalar_to_json(Fraction(args.eps)),
        "meetsQueriedEps": pinched(rep.minSec, Fraction(args.eps), rep.R),
        "einstein": m.einstein,
        "violations": [],
    }
    if m.solitonConstant is not None:
        payload["identities"] = soliton_identity_check(m)
        if not payload["identities"]["allZero"]:
            payload["violations"].append("soliton identity residual nonzero")
    return _finish(payload, args, f"model-{args.name}")


def cmd_models(args):
    table = literature_table()
    table["violations"] = []
    return _finish(table, args, "models")


def cmd_identities(args):
    checks, violations = [], []
    for m in default_models():
        rep = soliton_identity_check(m)
        checks.append(rep)
        if not rep["allZero"]:
            violations.append(rep["name"])
    report = {"checks": checks, "violations": violations}
    return _finish(report, args, "identities")


def cmd_all(args):
    sections = {}
    config = CampaignConfig(
        kind="profile", dims=(3, 4, 5, 6),
        eps_list=(Fraction(-1, 10), Fraction(0), Fraction(1, 48), Fraction(1, 24)),
        s_list=(Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(7, 8),
                Fraction(1)),
        count=1000, seed=args.seed, mode=args.arithmetic)
    sections["verifyEstimates"] = mc_campaign(config)

    q2_checked = [_q2_result(eps) for eps in
                  (Fraction(0), Fraction(1, 48), Fraction(1, 24), Fraction(1, 16))]
    sections["optimizeQ2"] = {"results": [entry for entry, _ in q2_checked]}

    sections["expandFsq"] = expansion_campaign(100, 20, args.seed)
    sections["models"] = literature_table()
    sections["identities"] = [soliton_identity_check(m) for m in default_models()]

    violations = list(sections["verifyEstimates"]["violations"])
    violations += [entry for entry, violated in q2_checked if violated]
    violations += sections["expandFsq"]["violations"]
    violations += [c["name"] for c in sections["identities"] if not c["allZero"]]
    report = {"sections": sections, "violations": violations}
    return _finish(report, args, "all")


COMMANDS = {
    "verify-estimates": cmd_verify_estimates,
    "optimize-q2": cmd_optimize_q2,
    "expand-fsq": cmd_expand_fsq,
    "model": cmd_model,
    "models": cmd_models,
    "identities": cmd_identities,
    "all": cmd_all,
}


def main(argv=None):
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        args = _apply_config_file(parser, args, argv)
        return COMMANDS[args.command](args)
    except SystemExit as exc:   # argparse errors exit 2 already
        raise
    except (DegenerateEpsError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:   # a fault of pinchlab itself: never the violation code
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
