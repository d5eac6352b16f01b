"""The benchmark's workloads (bench/workloads.py) run once against pinchlab.

The benchmark drives pinchlab through its public entry points with fixed
arguments: SearchOptions, min_sectional(Rm, opts), CampaignConfig(search=...),
pinching_threshold(use_search=True), optimize-q2 --grid and the CLI command
list.  Running each workload once here makes a change to any of them fail
the tests instead of failing benchmark operations.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()

CASES = [("full", "tensor-campaign"), ("full", "cli-exact"),
         *(("tiny", name) for name in workloads.TINY)]


@pytest.mark.parametrize("size, name", CASES)
def test_workload_runs_clean(size, name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)   # cli-exact writes its reports under the cwd
    workload = (workloads.WORKLOADS if size == "full" else workloads.TINY)[name]
    workload.ready()
    outcome = workload.run(1)
    assert outcome.attempted > 0
    assert (outcome.failed, outcome.known_red) == (0, 0), outcome.problems
    assert len(workloads.digest(outcome)) == 64
