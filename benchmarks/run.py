"""qcert benchmark: one workload per run, end-to-end or traced per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload certify-highd --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --trace 1

One caller runs one op at a time (a closed loop). Every set-up sample and
every pass runs in a fresh ``worker.py`` process with the BLAS thread count
set to 1, so ``lru_cache`` tables start cold and peak memory belongs to one
pass. A pass is the whole job list the seed defines; passes repeat, with the
same inputs, until ``--seconds`` would be exceeded, and timings are medians
over passes. ``--trace 1`` runs one untraced and one traced pass and reports
the per-layer metrics of the traced one. The last line of standard output is
one JSON object; the exit code is 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("certify-highd", "certify-rotated", "sweep-lowd", "oracle-exact")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # every run ends well inside three minutes
BLAS_THREADS = 1
# Median time of worker.Calibration on the host of the baseline. Timings are
# also reported scaled by CAL_REF_MS / (this run's median calibration time),
# which removes most of the drift in speed of a shared host.
CAL_REF_MS = 8.7
# The workloads with at least 100 ops per run, where a 90th percentile has ten
# samples beyond it.
P90_WORKLOADS = ("sweep-lowd",)
# A certify workload whose ops mostly contradict the ground truth has a broken tester.
MAX_ERROR_SHARE = 0.5


class BenchError(RuntimeError):
    """A worker failed or the run ran out of time."""


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "blas_threads": int(_child_env()["OPENBLAS_NUM_THREADS"])}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                 if ln.startswith("model name")), platform.processor())
    except OSError:
        facts["cpu"] = platform.processor()
    probe = ("import json, numpy; c = numpy.show_config(mode='dicts');"
             "b = c['Build Dependencies']['blas'];"
             "print(json.dumps([numpy.__version__, b.get('name'), b.get('version')]))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=_child_env(), timeout=60)
    if out.returncode == 0:
        facts["numpy"], facts["blas"], facts["blas_version"] = json.loads(out.stdout)
    return facts


class Runner:
    """Starts workers one at a time and keeps the run inside its time limit."""

    def __init__(self, workload: str, seed: int, size: str):
        self.workload, self.seed, self.size = workload, seed, size
        self.started = time.monotonic()
        self.env = _child_env()

    def worker(self, mode: str, trace: int = 0, spans: Path | None = None) -> dict:
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        if left <= 1:
            raise BenchError("run time limit reached")
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--trace", str(trace),
               "--size", self.size]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], capture_output=True,
                                  text=True, env=self.env, cwd=ROOT, timeout=left)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
            raise BenchError(f"{mode} worker exceeded the run time limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["process_s"] = time.monotonic() - spawned
        return result

    def passes(self, seconds: float) -> list[dict]:
        """Whole passes until the next one would end after ``seconds``; at least one."""
        start = time.monotonic()
        done = [self.worker("pass")]
        while time.monotonic() - start + done[-1]["process_s"] <= seconds:
            done.append(self.worker("pass"))
        return done


def _outputs(result: dict) -> list:
    """Everything a pass computed, without timings, for determinism checks."""
    return [(r["label"], r.get("out"), r.get("error")) for r in result["jobs"] + result["ops"]]


def _ops(result: dict) -> list[dict]:
    return result["ops"] if result["inner_ops"] else result["jobs"]


def summarize(workload: str, passes: list[dict]) -> dict:
    """Counts, checks and end-to-end metrics over the passes of one run."""
    ops = [op for p in passes for op in _ops(p)]
    jobs = [j for p in passes for j in p["jobs"]]
    failures = [r for r in ops if "error" in r]
    if passes[0]["inner_ops"]:
        failures += [j for j in jobs if "error" in j]
    verdicts = [r for r in ops if r.get("truth") and "error" not in r]
    wrong = [r for r in verdicts
             if r["out"]["answer"] != ("YES" if r["truth"] == "null" else "NO")]
    problems = [f"{r['label']}: {r['error']}" for r in failures]
    if any(_outputs(p) != _outputs(passes[0]) for p in passes[1:]):
        problems.append("passes with the same seed computed different outputs")
    error_share = len(wrong) / len(verdicts) if verdicts else 0.0
    if workload.startswith("certify") and error_share > MAX_ERROR_SHARE:
        problems.append(f"error share {error_share:.2f} > {MAX_ERROR_SHARE}")

    by_label: dict[str, list[float]] = {}
    for r in ops:
        if r.get("ms") is not None:
            by_label.setdefault(r["label"], []).append(r["ms"])
    times = [ms for label_ms in by_label.values() for ms in label_ms]
    cal_ms = statistics.median(x for p in passes for x in p["cal_s"]) * 1e3
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "op_ms.p50": (statistics.median(times), "ms"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        "op_count": (len(ops), "count"),
        "pass_count": (len(passes), "count"),
        "fail_share": (len(failures) / max(len(ops), 1), "1"),
        "cal_ms": (cal_ms, "ms"),
    }
    scale = CAL_REF_MS / cal_ms
    metrics["wall_s.scaled"] = (metrics["wall_s"][0] * scale, "s")
    metrics["op_ms.p50.scaled"] = (metrics["op_ms.p50"][0] * scale, "ms")
    if workload in P90_WORKLOADS:
        metrics["op_ms.p90"] = (statistics.quantiles(times, n=10)[8], "ms")
    if verdicts:
        metrics["copies_mean"] = (statistics.fmean(r["out"]["copies"] for r in verdicts),
                                  "copies")
        metrics["error_share"] = (error_share, "1")
    uppers = [r["out"]["copies"] / r["upper"] for r in verdicts if r.get("upper")]
    if workload == "certify-highd":
        null_ms = {int(label.removeprefix("null-d")): statistics.median(ms)
                   for label, ms in by_label.items() if label.startswith("null-d")}
        metrics["d_exponent"] = (_slope(list(null_ms), list(null_ms.values())), "1")
    return {"metrics": metrics, "attempted": len(ops), "failed": min(len(failures), len(ops)),
            "problems": problems,
            "op_ms_by_label": {k: [statistics.median(v), len(v)] for k, v in by_label.items()},
            "copies_over_upper": statistics.fmean(uppers) if uppers else 0.0}


def _slope(xs, ys) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def run_workload(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    runner = Runner(workload, seed, size)
    if not trace:
        setups = [runner.worker("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
        passes = runner.passes(seconds)
        summary = summarize(workload, passes)
        summary["metrics"]["setup_s"] = (statistics.median(setups), "s")
        return summary

    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    plain = runner.worker("pass")
    traced = runner.worker("pass", trace=1, spans=spans)
    summary = summarize(workload, [plain, traced])
    if traced["missing_targets"]:
        print(f"# not found in qcert, reported as 0: {traced['missing_targets']}",
              file=sys.stderr)
    layers = {name: tuple(v) for name, v in traced["layers"].items()}
    layers["certify.copies_over_upper"] = (summary["copies_over_upper"], "1")
    layers["trace.overhead_share"] = (traced["wall_s"] / plain["wall_s"] - 1, "1")
    summary["metrics"] = layers
    summary["spans"] = str(spans.relative_to(ROOT))
    return summary


def _print_metrics(workload: str, metrics: dict) -> None:
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{workload:16s} {name:52s} {value:>18.6g} {unit}")


def _gated(names_key: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[names_key]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: tiny inputs for the benchmark's self-tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "qcert" / "__init__.py").is_file():
        print(f"qcert sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    facts = machine_facts()
    print("# machine " + json.dumps(facts))
    names = _gated("per_layer" if args.trace else "end_to_end")
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    results, correct = {}, True
    for workload in chosen:
        try:
            summary = run_workload(workload, args.seed, args.seconds, args.trace, args.size)
        except BenchError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        _print_metrics(workload, summary["metrics"])
        for problem in summary["problems"]:
            print(f"{workload}: CHECK FAILED {problem}", file=sys.stderr)
        correct &= not summary["problems"]
        results[workload] = summary

    OUT.mkdir(exist_ok=True)
    record = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "machine": facts, "results": results}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    def pick(summary, prefix=""):
        return {prefix + n: {"value": summary["metrics"][n][0], "unit": summary["metrics"][n][1]}
                for n in names if n in summary["metrics"]}

    if args.workload == "all":
        metrics = {}
        for workload, summary in results.items():
            metrics.update(pick(summary, workload + "/"))
    else:
        metrics = pick(results[args.workload])
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in results.values()),
        "failed": sum(s["failed"] for s in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
