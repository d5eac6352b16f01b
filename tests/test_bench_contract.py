"""The benchmark's workloads (bench/workloads.py) run once against pinchlab.

The benchmark drives pinchlab through its public entry points with fixed
arguments: SearchOptions, min_sectional(Rm, opts), CampaignConfig(search=...),
pinching_threshold(use_search=True), optimize-q2 --grid and the CLI command
list.  Running each workload once here makes a change to any of them fail
the tests instead of failing benchmark operations, and pinning the seed-1
digests makes a change to any workload's output fail them too.
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

# the seed-1 digest of each case's outputs: a change that moves an output
# (a refactor that should not) fails here, not only in a benchmark comparison
DIGESTS = {
    ("full", "tensor-campaign"): "cc1a7e8c04d3211ee5985bebc697b4bf9c60094295c52c0c0324eb9af3e592c2",
    ("full", "cli-exact"): "29a61d44b53d0c9d2e4951f7532e4be7df9e0763fc50a4b6915762e87f1c881f",
    ("tiny", "tensor-campaign"): "b9ce15a4824aa18f702aa0916b8c04db8a58674e26ef0fc183d2caf80165fbe3",
    ("tiny", "profile-campaign"): "08b1eee5cb0cc98093ec901bc692fd898284965d9263e138464675708f45ca84",
    ("tiny", "cli-exact"): "f8da293595b7a80719ed7ad62dc13405ccb19dcd1deabf56019bc672f1f57ba0",
}
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
    assert workloads.digest(outcome) == DIGESTS[size, name]
