"""The benchmark's own tests: its checks catch wrong outputs, its exact
counters repeat, and its result line has the metrics BENCHMARK.json declares.

Run from the repository root::

    python3 -m pytest -q perfbench/tests

They start real runs (the serve workload starts a daemon), so they take
about two minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
for path in (ROOT / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402
from corpus_diff import CorpusDifferential  # noqa: E402
from figure8 import Figure8Detect, Figure8Minimize  # noqa: E402
from serve_mix import ServeMix  # noqa: E402

#: counters that must repeat exactly between two runs with one seed
EXACT_END_TO_END = ("cover_cubes", "cover_literals")
EXACT_PER_LAYER = (
    "hf.supercube_calls",
    "hf.supercube_hit_rate",
    "hf.expand_probes",
    "hf.coverage_lookups",
    "hf.coverage_hit_rate",
    "hf.mincov_nodes",
    "detect.points_checked",
    "detect.transitions_checked",
    "transform.cubes_out",
    "corpus.exact_match_rate",
)


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)


def _short(workload, trace=False, seed=3):
    return harness.measure(workload, seed, 0.01, trace)


def test_dropped_cube_counts_as_an_error():
    workload = Figure8Minimize()
    workload.cover_fault = lambda cover: type(cover)(
        cover.n_inputs, list(cover.cubes)[1:], cover.n_outputs
    )
    m = _short(workload)
    assert m.failed == m.attempted == 15
    assert 1.0 - m.end_to_end["success_rate"] > 0  # error rate
    assert harness.result(m, trace=False)["correct"] is False


def test_altered_golden_detect_field_counts_as_an_error(monkeypatch):
    workload = Figure8Detect()
    setup = workload.setup

    def altered(seed, timed_s):
        state = setup(seed, timed_s)
        state["golden"]["circuits"]["dram-ctrl"]["uf"]["points_checked"] += 1
        return state

    monkeypatch.setattr(workload, "setup", altered)
    m = _short(workload)
    assert m.failed == 1
    assert 1.0 - m.end_to_end["success_rate"] > 0


@pytest.mark.parametrize(
    "make", [Figure8Minimize, Figure8Detect, CorpusDifferential, ServeMix],
    ids=lambda w: w.name,
)
def test_exact_counters_repeat(make):
    first, second = (_short(make(), trace=True) for _ in range(2))
    assert first.failed == second.failed == 0
    for name in EXACT_END_TO_END:
        assert first.end_to_end[name] == second.end_to_end[name] > 0, name
    for name in EXACT_PER_LAYER:
        assert first.per_layer.get(name) == second.per_layer.get(name), name


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_result_line_names_every_declared_metric():
    e2e, per_layer = harness.declared_metrics()
    for trace, want in (("0", e2e), ("1", per_layer)):
        proc = _run(ROOT, "--workload", "figure8-minimize", "--seed", "1",
                    "--seconds", "0.01", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert {k: v["unit"] for k, v in line["metrics"].items()} == want


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "figure8-minimize", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
