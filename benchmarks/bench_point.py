"""Summarise benchmark result files into one point of the BENCH trajectory.

    python3 benchmarks/bench_point.py --out benchmarks/baseline.json \
        --tier1-log tier1.txt benchmarks/out/result-*.json

End-to-end metrics (``--trace 0`` results) become a median and quartiles
per workload over the seeds given; per-layer metrics (``--trace 1``
results) are kept per seed. ``--tier1-log`` is the output of
``pytest -q --durations=3``; its wall time and three slowest tests are
recorded for information only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path


def _quartiles(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            "n": len(values)}


def tier1_facts(text: str) -> dict:
    failed = re.search(r"(\d+) failed", text)
    summary = re.search(r"(\d+) passed.* in ([\d.]+)s", text)
    slowest = re.findall(r"^([\d.]+)s call\s+(\S+)", text, flags=re.M)
    return {"failed": int(failed[1]) if failed else 0, "passed": int(summary[1]),
            "wall_s": float(summary[2]),
            "slowest": [{"test": name, "seconds": float(sec)} for sec, name in slowest[:3]]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="+", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tier1-log", type=Path, default=None)
    args = parser.parse_args(argv)

    end_to_end: dict[str, dict[str, list]] = {}
    per_layer: dict[str, dict] = {}
    units: dict[str, str] = {}
    machine = None
    for path in args.results:
        record = json.loads(path.read_text())
        machine = machine or record["machine"]
        for workload, summary in record["results"].items():
            if record["trace"]:
                per_layer.setdefault(workload, {})[str(record["seed"])] = {
                    name: value for name, (value, _) in summary["metrics"].items()}
                units.update({name: unit for name, (_, unit) in summary["metrics"].items()})
                continue
            for name, (value, unit) in summary["metrics"].items():
                end_to_end.setdefault(workload, {}).setdefault(name, []).append(value)
                units[name] = unit

    point = {
        "machine": machine,
        "units": dict(sorted(units.items())),
        "end_to_end": {w: {name: _quartiles(v) for name, v in sorted(m.items())}
                       for w, m in end_to_end.items()},
        "per_layer": per_layer,
    }
    if args.tier1_log:
        point["tier1"] = tier1_facts(args.tier1_log.read_text())
    args.out.write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
