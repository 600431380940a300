"""One fresh process: import qcert, build one workload's inputs, run it once.

``run.py`` starts this script for every set-up sample and every pass, so
``lru_cache`` tables start cold and the peak memory belongs to one pass. It
prints one JSON object as its last line of standard output.

    python3 benchmarks/worker.py --workload certify-highd --seed 1 \
        --mode pass --trace 0 --spawned-at <time.monotonic() of the parent>
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CAL_EVERY_INNER_OPS = 100


class Calibration:
    """Fixed work that does not touch qcert, timed between ops.

    Its time follows how fast the shared host runs Python loops, small numpy
    calls and a BLAS-sized einsum at that moment. ``run.py`` scales the
    timings of a run by it. It never runs inside an op or inside the pass
    wall time.
    """

    def __init__(self):
        gen = np.random.default_rng(0)
        self.small = gen.standard_normal((32, 32)) + 1j * gen.standard_normal((32, 32))
        self.stack = gen.standard_normal((65, 64, 64)) + 0j
        self.perms = list(itertools.permutations(range(5)))
        self.samples: list[float] = []

    def sample(self) -> float:
        start = time.perf_counter()
        for p in self.perms:
            for q in self.perms[:12]:
                tuple(p[j] for j in q)
        for _ in range(10):
            u, _ = np.linalg.qr(self.small)
            np.einsum("zij,ji->z", np.einsum("zi,zj->zij", u, u.conj()), self.small).tolist()
        for _ in range(3):
            np.einsum("zij,ji->z", self.stack, self.stack[0])
        spent = time.perf_counter() - start
        self.samples.append(spent)
        return spent


def _run(workload, tracer, cal) -> tuple[float, list[dict], list[dict]]:
    """Run every job in order; returns (wall seconds, job records, op records)."""
    import workloads

    cli = workloads.cli
    jobs, ops = [], []

    def timed(fn, args=(), kwargs=None):
        t0 = time.perf_counter()
        if tracer is not None:
            result = tracer.call("op", fn, args, kwargs, op=True)
        else:
            result = fn(*args, **(kwargs or {}))
        return result, (time.perf_counter() - t0) * 1e3

    if workload.inner_ops:
        basic = cli.basic_certify

        def recorded(src, sigma, *args, **kwargs):
            truth = "null" if src.state is sigma else "alt"
            record = {"label": f"basic-d{src.dim}", "truth": truth}
            ops.append(record)
            try:
                verdict, ms = timed(basic, (src, sigma) + args, kwargs)
            except Exception as exc:
                record["error"] = repr(exc)
                raise
            record.update(ms=ms, out={"answer": verdict.answer,
                                      "copies": int(verdict.copies_used)})
            if len(ops) % CAL_EVERY_INNER_OPS == 0:
                cal.sample()
            return verdict

        cli.basic_certify = recorded

    cal.sample()
    start = time.perf_counter()
    results = []
    for job in workload.jobs:
        try:
            results.append((job, *timed(job.call), None))
        except Exception as exc:  # a failing op is counted, not fatal
            results.append((job, None, None, repr(exc)))
        cal.sample()
    wall = time.perf_counter() - start - sum(cal.samples[1:])

    for job, result, ms, error in results:
        record = {"label": job.label, "ms": ms, "truth": job.truth, "upper": job.upper}
        if error is None:
            try:
                record["out"] = job.summarize(result)
                why = job.check(record["out"])
            except Exception as exc:
                why = f"output check raised {exc!r}"
            if why:
                record["error"] = why
        else:
            record["error"] = error
        jobs.append(record)
    for record in ops:
        if "error" not in record:
            why = workloads.verdict_failure(record["out"])
            if why:
                record["error"] = why
    return wall, jobs, ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", default=None, help="where to write the spans (trace 1)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import qcert

    if not Path(qcert.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"qcert imported from {qcert.__file__}, not from {SRC}")
    import workloads

    workload = workloads.build(args.workload, args.seed, args.size)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.mode == "pass":
        tracer = None
        if args.trace:
            import tracer as tracer_module

            tracer = tracer_module.Tracer()
            tracer.install()
        cal = Calibration()
        wall, jobs, ops = _run(workload, tracer, cal)
        result.update(wall_s=wall, cal_s=cal.samples, jobs=jobs, ops=ops, meta=workload.meta,
                      inner_ops=workload.inner_ops)
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["missing_targets"] = tracer.missing
            if args.spans:
                tracer.write(args.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
