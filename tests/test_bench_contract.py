"""The benchmark's workloads (bench/workloads.py) run once against pinchlab.

The benchmark drives pinchlab through its public entry points with fixed
arguments: SearchOptions, min_sectional(Rm, opts), CampaignConfig(search=...),
pinching_threshold(use_search=True), optimize-q2 --grid and the CLI command
list.  Running each workload once here makes a change to any of them fail
the tests instead of failing benchmark operations, and pinning the seed-1
digests makes a change to any workload's output fail them too.

Every name the bench/*.py files read from a pinchlab module must exist.  Two
of them are read only by the benchmark's self-test (bench/test_bench.py),
which these tests do not run: profiles.min_sectional, the import that the
tracer rebinds, and minsec.minimize.  The search oracle itself lives in
tests/reference.py; these names stay in src until the benchmark stops
reading them (ROADMAP items 1 and 7).
"""

import ast
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
    ("full", "tensor-campaign"): "4340a0ebbdceb9197ae75e75ff9bdc07f8fb7181f3d4af0114b4374bf27630c0",
    ("full", "profile-campaign"): "026a6c8f71bfd769fef5750d01289f24c46fdd799c238fe563e784360bc8badd",
    ("full", "cli-exact"): "73eb4b1f529243c52253a61d2798fdbc35574bf49ad79ec02f55356cad224dc0",
    ("tiny", "tensor-campaign"): "2fc0195951a3a65f2b68b068764c82ac450963cb7af4682b9ed3b440cf2517f1",
    ("tiny", "profile-campaign"): "8d1d4e067c269a8e4c4309e6d47aa6730d9cfaf69fbce84cb66a41b221f4eaf1",
    ("tiny", "cli-exact"): "0fa84aedcffb148514225b7a2d27f6059a987ea8a0f613ffdc52d4b5e7ca9ed2",
}
CASES = [("full", "tensor-campaign"), ("full", "profile-campaign"), ("full", "cli-exact"),
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


def bench_reads():
    """(file, module, name) of each <module>.<name> attribute read in
    bench/*.py whose <module> is bound by `from pinchlab import ...`.  The
    tracer's Wrap targets are strings, not reads, and are not listed: it
    reports a missing one as absent by design."""
    reads = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {alias.asname or alias.name: alias.name
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "pinchlab"
                   for alias in node.names}
        reads |= {(path.name, modules[node.value.id], node.attr)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules}
    return sorted(reads)


def test_every_name_the_benchmark_reads_exists():
    reads = bench_reads()
    assert ("test_bench.py", "profiles", "min_sectional") in reads
    assert ("workloads.py", "profiles", "mc_campaign") in reads
    missing = [f"{file}: pinchlab.{module}.{name}" for file, module, name in reads
               if not hasattr(importlib.import_module(f"pinchlab.{module}"), name)]
    assert not missing
