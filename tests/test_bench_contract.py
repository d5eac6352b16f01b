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
    ("full", "tensor-campaign"): "656e1b7738d6bb2c54f76459a1b19680947126627e4b11eabc458b9aa16305ac",
    ("full", "cli-exact"): "a716c6e99b37879303df5eda2a086fadccb2809efdc840fdef3844957eccf501",
    ("tiny", "tensor-campaign"): "87207146fdcc2bac4503c931e89e525d1e1103c611df84050e27285a864d327d",
    ("tiny", "profile-campaign"): "8d1d4e067c269a8e4c4309e6d47aa6730d9cfaf69fbce84cb66a41b221f4eaf1",
    ("tiny", "cli-exact"): "693b9edb2bc7dcfb8426bd6e676f0c51583fce1d3ecf8d9cdb735067831e0cb5",
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
