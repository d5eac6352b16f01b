"""Self-test of the benchmark at tiny size.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric BENCHMARK.json names is reported with its unit,
that the work counts repeat exactly for a repeated seed, that the tracer
reports a wrapped name that no longer exists as absent, that the host-speed
sampler scales time and leaves the signal state as it found it, and that
the benchmark refuses to run where there is no pinchlab source.
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import WRAPS, Tracer, Wrap, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPEATED_COUNTS = ("minsec.lbfgs.starts", "minsec.lbfgs.nfev", "ftensor.q2.calls",
                   "ftensor.sample_gradient_model.calls", "curvature.invariants.calls")


@pytest.fixture(autouse=True)
def _in_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _measure(name, trace, seed=7):
    return run.measure(workloads.TINY[name], seed, 0, trace, ROOT, probes=1)


def test_workload_names_match_spec():
    assert set(run.WORKLOAD_NAMES) == {w["name"] for w in SPEC["workloads"]}
    assert set(workloads.TINY) == set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_reported_with_unit(name, trace):
    listed = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    summary = _measure(name, trace)
    assert set(summary["metrics"]) == set(units)
    line = json.loads(json.dumps(run.final_line(summary, units)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    for metric, unit in units.items():
        value = line["metrics"][metric]
        assert value["unit"] == unit
        assert isinstance(value["value"], (int, float))


def test_known_red_stays_visible():
    summary = _measure("cli-exact", 0)
    assert summary["known_red"] == summary["reps"]
    assert any("OverflowError" in p for p in summary["problems"])


def _counts():
    tensor = _measure("tensor-campaign", 1)["metrics"]
    cli = _measure("cli-exact", 1)["metrics"]
    return {name: (cli if name.startswith("ftensor.") else tensor)[name]
            for name in REPEATED_COUNTS}


def test_counts_repeat_for_a_seed():
    first, second = _counts(), _counts()
    assert all(value > 0 for value in first.values()), first
    assert first == second


def test_layers_idle_where_the_workload_bypasses_them():
    metrics = _measure("profile-campaign", 1)["metrics"]
    assert metrics["minsec.min_sectional.calls"] == 0
    assert metrics["minsec.lbfgs.busy_s"] == 0
    assert metrics["profiles.profile_batch_exact.profiles_per_s"] > 0


def test_absent_wrap_is_reported_not_fatal():
    gone = Wrap("minsec", "removed_by_a_refactor", "minsec.gone")
    tracer = Tracer(WRAPS + (gone,))
    with tracer.installed():
        workloads.TINY["profile-campaign"].run(3)
    assert tracer.absent == ["pinchlab.minsec.removed_by_a_refactor"]
    assert layer_metrics([tracer])["trace.absent"] == 1


def test_tracer_restores_the_originals():
    from pinchlab import minsec, profiles
    before = (minsec.min_sectional, profiles.min_sectional, minsec.minimize)
    with Tracer().installed():
        assert minsec.min_sectional is not before[0]
        assert profiles.min_sectional is minsec.min_sectional
    assert (minsec.min_sectional, profiles.min_sectional, minsec.minimize) == before


def test_host_speed_sampler_scales_and_restores():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.sampled() as region:
        sum(i % 7 for i in range(2_000_000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert region.samples and 0 < region.own < region.elapsed
    assert region.scaled == pytest.approx(region.own * region.speed)


def test_refuses_without_source(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cli-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
