"""Self-tests of the benchmark at toy sizes.

    python3 -m pytest benchmarks -q

They run outside the tier-1 suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

WORKLOADS = run.WORKLOADS


def _pass(workload: str, seed: int, trace: int = 0, spans: Path | None = None) -> dict:
    return run.Runner(workload, seed, "toy").worker("pass", trace=trace, spans=spans)


@pytest.fixture(scope="module")
def toy_passes(tmp_path_factory):
    """Untraced and traced toy passes of every workload, seeds 1 and 2."""
    spans_dir = tmp_path_factory.mktemp("spans")
    out = {}
    for workload in WORKLOADS:
        spans = spans_dir / f"{workload}.jsonl"
        out[workload] = {
            "plain": _pass(workload, 1),
            "traced": _pass(workload, 1, trace=1, spans=spans),
            "other_seed": _pass(workload, 2),
            "spans": spans,
        }
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_computes_the_same_outputs(toy_passes, workload):
    passes = toy_passes[workload]
    assert run._outputs(passes["traced"]) == run._outputs(passes["plain"])
    assert not run.summarize(workload, [passes["plain"], passes["traced"]])["problems"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_child_self_times_stay_inside_the_parent_span(toy_passes, workload):
    spans = [json.loads(line) for line in toy_passes[workload]["spans"].read_text().splitlines()]
    assert spans
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(float)
    for s in spans:
        assert s["end"] >= s["start"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            assert s["op"] == (s["id"] if s["name"] == "op" else parent["op"])
            children[s["parent"]] += s["end"] - s["start"]
    for span_id, covered in children.items():
        span = by_id[span_id]
        assert covered <= span["end"] - span["start"] + 1e-9


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_but_not_metric_names(toy_passes, workload):
    passes = toy_passes[workload]
    assert run._outputs(passes["other_seed"]) != run._outputs(passes["plain"])
    names = set(run.summarize(workload, [passes["plain"]])["metrics"])
    assert names == set(run.summarize(workload, [passes["other_seed"]])["metrics"])
    assert set(run._gated("end_to_end")) <= names | {"setup_s"}


def test_traced_run_reports_every_per_layer_metric(toy_passes):
    for workload in WORKLOADS:
        layers = set(toy_passes[workload]["traced"]["layers"])
        reported = layers | {"certify.copies_over_upper", "trace.overhead_share"}
        assert set(run._gated("per_layer")) == reported


def test_counts_repeat_exactly_for_the_same_seed(toy_passes):
    again = _pass("certify-highd", 1, trace=1)
    first = toy_passes["certify-highd"]["traced"]["layers"]
    for name, (value, unit) in again["layers"].items():
        if not name.endswith("self_ms"):
            assert value == first[name][0], name


def _checkout(tmp_path: Path, with_src: bool) -> Path:
    root = tmp_path / "checkout"
    shutil.copytree(HERE, root / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", root / "BENCHMARK.json")
    if with_src:
        shutil.copytree(HERE.parent / "src", root / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _bench(root: Path, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0", "--size", "toy"],
        cwd=root, capture_output=True, text=True, timeout=170)


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    proc = _bench(_checkout(tmp_path, with_src=False), "certify-highd")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_failed_output_check_exits_nonzero(tmp_path):
    root = _checkout(tmp_path, with_src=True)
    ref_path = root / "benchmarks" / "reference.json"
    ref = json.loads(ref_path.read_text())
    for entry in ref["haar_moment"]["d6"] + ref["haar_moment"]["d8"]:
        entry["k4"] *= 1 + 1e-6
    ref_path.write_text(json.dumps(ref))
    proc = _bench(root, "oracle-exact")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
