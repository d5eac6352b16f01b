import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pinchlab import cli, profiles
from pinchlab.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main
from reference import lower_estimate1


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def exit_code(argv):
    """main's exit code, also where argparse exits on a usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_verify_estimates_clean(capsys, tmp_path):
    code, out = run(capsys, ["verify-estimates", "--count", "300",
                             "--n", "4", "--eps", "1/24", "--s", "1",
                             "--seed", "7", "--out", str(tmp_path)])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["violations"] == []
    assert "digest" in payload
    assert len(list(tmp_path.iterdir())) == 1


def test_persisted_report_is_named_by_the_printed_digest(capsys, tmp_path):
    code, out = run(capsys, ["model", "sphere", "--out", str(tmp_path)])
    assert code == EXIT_OK
    [path] = tmp_path.iterdir()
    digest = json.loads(out)["digest"]
    assert path.name.startswith("model-sphere-") and path.stem.endswith(digest[:12])
    assert json.loads(path.read_text())["digest"] == digest


def test_verify_estimates_corrupted_coefficient_exits_1(capsys, monkeypatch):
    lower_estimate1(monkeypatch, 1)
    code, out = run(capsys, ["verify-estimates", "--count", "300",
                             "--n", "4", "--eps", "0", "--s", "1"])
    assert code == EXIT_VIOLATION
    assert json.loads(out)["violations"]


def test_verify_estimates_tensor_kind_corrupted_coefficient_exits_1(capsys, monkeypatch):
    lower_estimate1(monkeypatch, 1000)
    code, out = run(capsys, ["verify-estimates", "--kind", "tensor", "--count", "3",
                             "--n", "4", "--eps", "0", "--distribution", "sparse"])
    assert code == EXIT_VIOLATION
    payload = json.loads(out)
    assert payload["violations"]
    config = payload["config"]
    assert (config["mode"], config["distribution"]) == ("float", None)


def test_corrupted_coefficient_is_no_option(capsys, tmp_path):
    with pytest.raises(SystemExit) as exited:
        main(["verify-estimates", "--corrupt-rhs1", "-1.0"])
    assert exited.value.code == EXIT_USAGE
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"corrupt-rhs1": -1.0}))
    assert main(["verify-estimates", "--config", str(cfg)]) == EXIT_USAGE
    assert capsys.readouterr().err.endswith(
        "error: config 'corrupt-rhs1': verify-estimates has no such flag\n")


@pytest.mark.parametrize("argv", [
    ["--n", "6", "--eps", "1/1000", "--count", "5000"],
    ["--n", "4", "--eps", "1/100000000000000000000", "--count", "10"],
])
def test_verify_estimates_beyond_int64_exits_0(capsys, argv):
    code, out = run(capsys, ["verify-estimates", *argv])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["violations"] == []
    (check,) = payload["checks"]
    assert check["exact"]["slackIdentityExact"] is True
    assert check["exact"]["exactLane"] == "python-int"


def test_internal_error_exits_2(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("something inside broke")

    monkeypatch.setitem(cli.COMMANDS, "identities", broken)
    assert main(["identities"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal error: RuntimeError: something inside broke\n"


@pytest.mark.parametrize("arithmetic", ["float", "rational"])
def test_profile_lane_fault_exits_2(capsys, monkeypatch, arithmetic):
    # a fault of a lane's kernel while its worker thread draws ahead is an
    # internal error, never the violation code
    gaps, calls = profiles.estimate_gaps, []

    def broken(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("kernel broke on block 2")
        return gaps(*args)

    monkeypatch.setattr(profiles, "estimate_gaps", broken)
    before = threading.active_count()
    assert main(["verify-estimates", "--n", "5", "--eps", "1/48", "--count", "20000",
                 "--arithmetic", arithmetic]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal error: RuntimeError: kernel broke on block 2\n"
    assert threading.active_count() == before


def test_bad_seed_variable_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("PINCHLAB_SEED", "abc")
    assert main(["models"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: PINCHLAB_SEED = 'abc': not an integer\n"


@pytest.mark.parametrize("argv, flag", [
    (["verify-estimates", "--eps", "1e400", "--count", "2"], "--eps"),
    (["optimize-q2", "--eps", "1e308"], "--eps"),
    (["verify-estimates", "--seed", "-1", "--count", "2"], "--seed"),
    (["verify-estimates", "--eps=-1e307", "--count", "20", "--arithmetic", "float"], "--eps"),
])
def test_usage_error_names_the_flag(capsys, argv, flag):
    # 1e400 has no float, Q2's maximum at 1e308 neither; numpy refuses seed
    # -1; estimate 2's n = 4 coefficient (2 - 32 eps) / 8 at eps = -1e307
    # has no float either, and gave an infinite minGap2 and exit 0
    assert exit_code(argv) == EXIT_USAGE
    (line,) = capsys.readouterr().err.splitlines()[-1:]
    assert flag in line and "internal error" not in line, line


def test_negative_seed_from_the_variable_or_a_config_is_usage_error(capsys, monkeypatch,
                                                                   tmp_path):
    monkeypatch.setenv("PINCHLAB_SEED", "-1")
    assert main(["models"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: PINCHLAB_SEED = '-1': negative\n"
    monkeypatch.delenv("PINCHLAB_SEED")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    assert main(["models", "--config", str(cfg)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: config 'seed': negative\n"


@pytest.mark.parametrize("data", [[1, 2], "count", 7, None])
def test_config_that_is_not_an_object_is_usage_error(capsys, tmp_path, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert main(["verify-estimates", "--config", str(cfg)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config {cfg}: expected a JSON object\n"


def test_degenerate_eps_is_usage_error(capsys):
    code, _ = run(capsys, ["verify-estimates", "--n", "4", "--eps", "1/12"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv, name", [
    (["verify-estimates", "--s", "2", "--count", "10"], "s"),
    (["verify-estimates", "--n", "2", "--count", "10"], "n"),
    (["verify-estimates", "--n", "1", "--count", "10"], "n"),
    (["verify-estimates", "--count", "-3"], "count"),
    (["verify-estimates", "--kind", "tensor", "--count", "-3"], "count"),
    (["expand-fsq", "--models", "-2"], "model_count"),
    (["expand-fsq", "--coeffs", "0"], "coeff_count"),
    (["verify-estimates", "--kind", "tensor", "--eps", "0", "--count", "2",
      "--n", "4", "--n", "9"], "n"),
])
def test_out_of_domain_value_is_usage_error(capsys, monkeypatch, tmp_path, argv, name):
    solves = []
    monkeypatch.setattr(profiles, "solve_dual_stack", lambda rhat: solves.append(rhat))
    out = tmp_path / "reports"
    assert main([*argv, "--out", str(out)]) == EXIT_USAGE
    assert not solves   # rejected before any combo ran
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and re.search(rf"\b{name} = ", line), line
    assert not out.exists()


def test_bad_scalar_is_usage_error():
    with pytest.raises(SystemExit):
        main(["verify-estimates", "--eps", "banana"])


def test_negative_value_needs_the_equals_form(capsys):
    code, out = run(capsys, ["verify-estimates", "--n", "4", "--eps=-1/10", "--count", "50"])
    assert code == EXIT_OK
    assert json.loads(out)["config"]["epsList"] == ["-1/10"]
    # argparse reads "-1/10" after a space as an option, not as the value
    with pytest.raises(SystemExit) as exc:
        main(["verify-estimates", "--n", "4", "--eps", "-1/10", "--count", "50"])
    assert exc.value.code == EXIT_USAGE


def test_optimize_q2_default_eps(capsys):
    code, out = run(capsys, ["optimize-q2"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["results"][0]["eps"] == "1/24"
    assert abs(payload["results"][0]["delta"]) < 1e-9


def test_optimize_q2_names_branches(capsys):
    code, out = run(capsys, ["optimize-q2", "--eps", "0", "--eps", "1/36",
                             "--eps", "1/24"])
    assert code == EXIT_VIOLATION
    results = json.loads(out)["results"]
    assert [r["branch"] for r in results] == ["line", "constant", "point"]
    assert all(r["crossover"] == "1/36" for r in results)
    assert [r["delta"] for r in results[1:]] == [0, 0]


def test_expand_fsq(capsys):
    code, out = run(capsys, ["expand-fsq", "--models", "5", "--coeffs", "5"])
    assert code == EXIT_OK
    assert json.loads(out)["exact"] is True


def test_model_subcommand(capsys):
    code, out = run(capsys, ["model", "fubini_study_cp2", "--eps", "1/24"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["threshold"]["ratio"] == "1/24"
    assert payload["meetsQueriedEps"]
    assert payload["identities"]["allZero"]


def test_model_thresholds_are_json_bools(capsys, monkeypatch):
    from pinchlab.models import sphere
    code, out = run(capsys, ["models", "--format", "json"])
    assert code == EXIT_OK
    rows = json.loads(out)["models"]
    assert all(type(row[k]) is bool for row in rows for k in row if k.startswith("meets["))
    # R = -12 < 0: minSec = -1 is below eps*R = -1/2 although minSec / R = 1/12
    monkeypatch.setattr(cli, "model", lambda name: sphere(4, -1))
    _, out = run(capsys, ["model", "sphere", "--eps", "1/24"])
    payload = json.loads(out)
    assert payload["threshold"]["passes124"] is False
    assert payload["meetsQueriedEps"] is False


def test_model_unknown_name_rejected():
    with pytest.raises(SystemExit):
        main(["model", "klein_bottle"])


def test_models_table_formats(capsys, tmp_path):
    code, out = run(capsys, ["models", "--format", "csv", "--out", str(tmp_path / "csv")])
    assert code == EXIT_OK
    assert out.splitlines()[0].startswith("model,")
    code, out = run(capsys, ["models", "--format", "text", "--out", str(tmp_path / "text")])
    assert code == EXIT_OK
    assert "soliton(1/24)" in out
    # every format persists the payload that --format json prints
    code, out = run(capsys, ["models", "--format", "json", "--out", str(tmp_path / "json")])
    assert code == EXIT_OK
    for fmt in ("csv", "text", "json"):
        (report,) = (tmp_path / fmt).iterdir()
        assert json.loads(report.read_text()) == json.loads(out), fmt


def test_models_csv_writes_a_missing_value_as_an_empty_field(capsys, tmp_path):
    # flat(4) has no pinching ratio: null in the persisted JSON report and an
    # empty field, not the text "None", in the CSV
    code, out = run(capsys, ["models", "--format", "csv", "--out", str(tmp_path)])
    assert code == EXIT_OK
    header, *rows = csv.reader(out.splitlines())
    flat = dict(zip(header, next(row for row in rows if row[0] == "flat(4)")))
    assert flat["ratio"] == "" and flat["einstein"] == "True"
    (report,) = tmp_path.iterdir()
    persisted = json.loads(report.read_text())["models"]
    assert next(row for row in persisted if row["model"] == "flat(4)")["ratio"] is None


def test_models_has_no_table_flag():
    with pytest.raises(SystemExit) as exc:
        main(["models", "--table"])
    assert exc.value.code == EXIT_USAGE


def test_arithmetic_only_where_it_is_read(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["model", "sphere", "--arithmetic", "float"])
    assert exc.value.code == EXIT_USAGE
    checks = {}
    for arithmetic in ("rational", "float"):
        code, out = run(capsys, ["verify-estimates", "--count", "50",
                                 "--arithmetic", arithmetic])
        assert code == EXIT_OK
        checks[arithmetic] = json.loads(out)["checks"]
    assert all("exact" in check for check in checks["rational"])
    assert not any("exact" in check for check in checks["float"])


def test_identities(capsys):
    code, out = run(capsys, ["identities"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["violations"] == []
    assert len(payload["checks"]) == 5


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("PINCHLAB_SEED", "77")
    _, out1 = run(capsys, ["verify-estimates", "--count", "100"])
    assert json.loads(out1)["config"]["seed"] == 77


def test_config_file_mirrors_flags(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count": 123, "seed": 5, "eps": ["1/48"]}))
    _, out = run(capsys, ["verify-estimates", "--config", str(cfg)])
    payload = json.loads(out)
    assert payload["config"]["count"] == 123
    assert payload["config"]["epsList"] == ["1/48"]
    # explicit flags beat the config file
    _, out = run(capsys, ["verify-estimates", "--config", str(cfg),
                          "--count", "50"])
    assert json.loads(out)["config"]["count"] == 50
    # ... also when the flag's value equals its default
    _, out = run(capsys, ["verify-estimates", "--config", str(cfg),
                          "--count", "1000"])
    assert json.loads(out)["config"]["count"] == 1000


def test_repeat_runs_share_digest(capsys):
    argv = ["verify-estimates", "--count", "200", "--seed", "3"]
    _, out1 = run(capsys, argv)
    _, out2 = run(capsys, argv)
    assert json.loads(out1)["digest"] == json.loads(out2)["digest"]


def test_config_scalar_for_repeatable_flags(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": "1/24"}))
    code, out = run(capsys, ["optimize-q2", "--config", str(cfg)])
    assert code == EXIT_OK
    assert [r["eps"] for r in json.loads(out)["results"]] == ["1/24"]
    cfg.write_text(json.dumps({"n": 4, "eps": "1/48", "s": 1, "count": 50}))
    code, out = run(capsys, ["verify-estimates", "--config", str(cfg)])
    assert code == EXIT_OK
    config = json.loads(out)["config"]
    assert (config["dims"], config["epsList"], config["sList"]) == ([4], ["1/48"], ["1"])


@pytest.mark.parametrize("command, data", [
    ("verify-estimates", {"n": {"four": 4}}),
    ("verify-estimates", {"n": 4.5}),
    ("verify-estimates", {"s": [[1]]}),
    ("optimize-q2", {"eps": {"p": 1, "q": 24}}),
    ("model", {"eps": [1]}),
    ("verify-estimates", {"distribution": "sparce", "count": 10}),   # argparse never sees it
])
def test_config_value_of_wrong_type_is_usage_error(capsys, tmp_path, command, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    argv = [command, "sphere"] if command == "model" else [command]
    code, _ = run(capsys, [*argv, "--config", str(cfg)])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("command, data, reported", [
    ("verify-estimates", {"count": "50"}, lambda payload: payload["config"]["count"]),
    ("expand-fsq", {"models": "3"}, lambda payload: payload["modelCount"]),
])
def test_config_text_takes_its_flags_type(capsys, tmp_path, command, data, reported):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    code, out = run(capsys, [command, "--config", str(cfg)])
    assert code == EXIT_OK
    assert reported(json.loads(out)) == int(*data.values())


@pytest.mark.parametrize("data, key", [
    ({"count": 2.5}, "count"),
    ({"seed": 1.5, "count": 10}, "seed"),   # was run as seed 1 and reported as 1.5
])
def test_config_value_its_flag_refuses_is_usage_error(capsys, tmp_path, data, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    code = main(["verify-estimates", "--config", str(cfg)])
    assert code == EXIT_USAGE
    assert re.fullmatch(rf"error: config '{key}': [^\n]*\n", capsys.readouterr().err)


def test_config_key_naming_no_flag_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cont": 7}))
    code = main(["verify-estimates", "--config", str(cfg)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == \
        "error: config 'cont': verify-estimates has no such flag\n"
    cfg.write_text(json.dumps({"count": 5}))
    code, out = run(capsys, ["verify-estimates", "--config", str(cfg)])
    assert code == EXIT_OK
    assert json.loads(out)["config"]["count"] == 5


def test_cli_and_the_tensor_campaign_never_import_scipy(tmp_path):
    # only the tests' min-Sec oracle (tests/reference.py) imports scipy, on
    # first use, so the runtime keeps its import time and memory out of the
    # process at every n the dual solves
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "import sys\n"
        "from pinchlab import cli, curvature, minsec, profiles\n"
        f"cli.main(['all', '--out', {str(tmp_path)!r}])\n"
        "profiles.mc_campaign(profiles.CampaignConfig(kind='tensor', dims=(4, 5, 6, 7, 8),"
        " eps_list=(0,), count=2))\n"
        "for n in range(5, 9):\n"
        "    minsec.dual_min_sectional(curvature.random_curvature(n, [3, n], 'float'))\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("n, eps, reason", [
    ("11", "1/110", ">= 1/\\(n\\(n-1\\)\\) = 1/110 for n = 11"),
    ("4", "0.0833333333333333333", "< 1/\\(n\\(n-1\\)\\) = 1/12 for n = 4, but rounded to float"),
])
def test_critical_eps_is_a_usage_error(capsys, n, eps, reason):
    # eps = 1/110 is critical at n = 11; the other is below 1/12, but its
    # float denominator 1 - 12 * float(eps) is 0
    code = main(["verify-estimates", "--n", n, "--eps", eps, "--count", "20"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert re.fullmatch(f"error: eps = [^\n]*{reason}[^\n]*\n", captured.err), captured.err


# Hostile values for the generated-argv test, drawn besides ordinary ones.
HOSTILE_SCALARS = ("0", "1/24", "-1/10", "1/2", "1", "7", "-7", "1e400", "-1e400",
                   "1e308", "-1e308", "1e-400", "-1e-300", "1/100000000000000000000",
                   "1/110")
HOSTILE_INTS = {"count": (-3, 0, 1, 2), "models": (-2, 0, 1, 3), "coeffs": (-2, 0, 1, 3),
                "n": (-1, 0, 2, 3, 4, 5, 9, 11, 40), "seed": (-1, 0, 7, 2 ** 64)}
HOSTILE_JSON = st.one_of(st.none(), st.booleans(), st.integers(-5, 5),
                         st.floats(allow_nan=True), st.text(max_size=4),
                         st.sampled_from(HOSTILE_SCALARS),
                         st.lists(st.sampled_from(HOSTILE_SCALARS), max_size=2),
                         st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


def _value(action):
    """A command-line value of one parser action, ordinary or hostile."""
    if action.choices is not None:
        return st.sampled_from([*action.choices, "bogus"])
    if action.type is int:
        return st.sampled_from(HOSTILE_INTS.get(action.dest, (-1, 0, 1, 2)))
    return st.sampled_from(HOSTILE_SCALARS)


@st.composite
def _argv(draw):
    """(argv, config data or None, PINCHLAB_SEED or None) for one subcommand,
    drawn from its parser's own actions."""
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    name = draw(st.sampled_from(sorted(commands.choices)))
    argv, config = [name], None
    for action in commands.choices[name]._actions:
        if not action.option_strings:   # the model name
            argv.append(draw(_value(action)))
        elif action.dest == "config":
            if draw(st.booleans()):
                config = draw(st.one_of(HOSTILE_JSON, st.dictionaries(
                    st.sampled_from(["count", "seed", "n", "eps", "s", "models",
                                     "coeffs", "kind", "format", "cont"]),
                    HOSTILE_JSON, max_size=3)))
        elif action.dest in HOSTILE_INTS and action.dest != "seed":
            # sizes are always given, so that no default-sized campaign runs
            argv.append(f"{action.option_strings[0]}={draw(_value(action))}")
        elif action.dest not in ("help", "out") and draw(st.booleans()):
            repeats = draw(st.integers(1, 2)) if isinstance(action, argparse._AppendAction) else 1
            argv += [f"{action.option_strings[0]}={draw(_value(action))}"
                     for _ in range(repeats)]
    env_seed = draw(st.sampled_from([None, "5", "-1", "abc"]))
    return argv, config, env_seed


@settings(max_examples=60, deadline=None)
@given(case=_argv())
def test_generated_argv_keeps_the_exit_code_contract(case):
    # 0 passed, 1 only with violations, 2 usage error; never an internal error
    argv, config, env_seed = case
    env = {} if env_seed is None else {"PINCHLAB_SEED": env_seed}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, env):
        if env_seed is None:
            os.environ.pop("PINCHLAB_SEED", None)
        if config is not None:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(config))
            argv = [*argv, f"--config={path}"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = exit_code([*argv, f"--out={tmp}"])
    assert code in (EXIT_OK, EXIT_VIOLATION, EXIT_USAGE), (argv, config)
    assert not any(line.startswith("error: internal error")
                   for line in stderr.getvalue().splitlines()), (argv, config, stderr.getvalue())
    if code == EXIT_VIOLATION:   # real violations: finite gaps over nonzero denominators
        violations = json.loads(stdout.getvalue())["violations"]
        assert violations, (argv, config)
        for v in violations:
            if isinstance(v, dict):
                assert all(math.isfinite(v[k]) for k in ("gap1", "gap2") if k in v), (argv, v)
                assert all(v[k] != 0 for k in v if k.endswith("Den")), (argv, v)
    if code == EXIT_OK and argv[0] != "models":   # a passing report has finite gaps
        gaps = list(_gap_summaries(json.loads(stdout.getvalue())))
        assert all(v is None or math.isfinite(v) for v in gaps), (argv, config, gaps)


def _gap_summaries(report):
    """Every value of a report's minGap* keys, at any depth."""
    if isinstance(report, list):
        for item in report:
            yield from _gap_summaries(item)
    elif isinstance(report, dict):
        for key, value in report.items():
            if key.startswith("minGap"):
                yield from value.values() if isinstance(value, dict) else [value]
            else:
                yield from _gap_summaries(value)
