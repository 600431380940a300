"""The benchmark's four workloads at toy size, each job checked by its own output check.

``benchmarks/workloads.py`` calls the package by name: ``CertifyConfig(eps=,
delta=)``, ``certify`` with its config as a positional argument,
``cli.hidden_state``, ``cli.minimal_copies`` and ``weingarten_table(order, d)``,
and it tells the null trials of a sweep by ``src.state is sigma`` in a wrapper
on ``cli.basic_certify``. A change that breaks one of those fails here. The
module is loaded from its file; nothing under ``benchmarks/`` is written.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from qcert import cli

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.mark.parametrize("name", ["certify-highd", "certify-rotated", "sweep-lowd",
                                  "oracle-exact"])
def test_every_toy_job_passes_its_check(workloads, name, monkeypatch):
    inner = []  # (null trial, failure) of each basic_certify call a sweep job makes
    basic = cli.basic_certify

    def recorded(src, sigma, *args, **kwargs):
        verdict = basic(src, sigma, *args, **kwargs)
        out = {"answer": verdict.answer, "copies": int(verdict.copies_used)}
        inner.append((src.state is sigma, workloads.verdict_failure(out)))
        return verdict

    monkeypatch.setattr(cli, "basic_certify", recorded)
    workload = workloads.build(name, 1, "toy")
    assert workload.jobs
    for job in workload.jobs:
        assert job.check(job.summarize(job.call())) is None, job.label
    if workload.inner_ops:
        assert {null for null, _ in inner} == {True, False}
        assert [fail for _, fail in inner if fail] == []
