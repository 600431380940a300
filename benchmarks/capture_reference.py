"""Capture the exact oracle values that ``oracle-exact`` checks against.

Run from the repository root; it rewrites ``benchmarks/reference.json``:

    python3 benchmarks/capture_reference.py

The values are those of the commit the file was captured at. Rerun it only
when a change to qcert is meant to change these values, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import workloads as w  # noqa: E402


def main() -> int:
    ref: dict = {"catalogue_seed": w.CATALOGUE_SEED, "catalogue_size": w.CATALOGUE_SIZE}
    ref["haar_moment"] = {
        f"d{d}": [
            {f"k{k}": w.haar_oracle.haar_moment(*w.catalogue_pair(d, i), k) for k in (4, 6)}
            for i in range(w.CATALOGUE_SIZE)
        ]
        for d in w.PAIR_DIMS
    }
    ref["ez2_exact"] = {
        f"d{d}": [
            w.haar_oracle.verify_moments_basic(w.catalogue_traceless(d, i), 10,
                                               np.random.default_rng(0)).ez2_exact
            for i in range(w.CATALOGUE_SIZE)
        ]
        for d in w.MOMENT_DIMS
    }
    for kind, args in (("corner", w.CORNER_ARGS), ("paninski", w.PANINSKI_ARGS)):
        ref[f"divergence_{kind}"] = []
        for i in range(w.CATALOGUE_SIZE):
            rc, out = w.run_cli(list(args) + ["--seed", str(i)])
            if rc != 0:
                raise SystemExit(f"divergence {kind} seed {i} exited {rc}")
            ref[f"divergence_{kind}"].append([[r["tv"], r["chi2"]] for r in out["rows"]])
    ref["verify"] = []
    for i in range(w.CATALOGUE_SIZE):
        _, out = w.run_cli(list(w.VERIFY_ARGS) + ["--seed", str(i)])
        ref["verify"].append({c["check"]: c["ok"] for c in out["checks"]})
    w.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
