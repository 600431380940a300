"""Span tracer wrapped around qcert's public functions from outside the package.

Each wrapped call records a span (id, parent id, op id, name, start, end) in
memory; spans are written out as JSON lines when the run ends. A span's self
time is its duration minus the time its child spans cover. Counters that need
a call's arguments or result (bytes passed to ``outcome_distribution``,
conditional discards, basic rounds, transcripts) are taken at the same
boundaries.

Two things make wrapping qcert delicate:

* ``qcert.certify`` on the package is the function ``certify`` (``__init__``
  shadows the submodule), so modules are reached through ``importlib``.
* Consumers bind names with ``from .x import y``; a wrapper has to replace
  every module-level binding of the original object, not only the defining
  one (for example ``qcert.certify.haar_unitary`` and ``qcert.cli.haar_unitary``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute path). Methods are patched on their class.
TARGETS = (
    ("rng.generator", "qcert.rng", "RngHandle.generator"),
    ("rng.haar_unitary", "qcert.rng", "haar_unitary"),
    ("linalg.DensityMatrix", "qcert.linalg", "DensityMatrix.__init__"),
    ("linalg.hermitian_eig", "qcert.linalg", "hermitian_eig"),
    ("measurement.basis_povm", "qcert.measurement", "basis_povm"),
    ("measurement.outcome_distribution", "qcert.measurement", "outcome_distribution"),
    ("measurement.Povm.conjugated", "qcert.measurement", "Povm.conjugated"),
    ("measurement.CopySource.measure_batch", "qcert.measurement", "CopySource.measure_batch"),
    ("certify.basic_certify", "qcert.certify", "basic_certify"),
    ("certify.ConditionalCopySource.measure_batch", "qcert.certify",
     "ConditionalCopySource.measure_batch"),
    ("classical.l2_two_sample_test", "qcert.classical", "l2_two_sample_test"),
    ("haar_oracle.weingarten_table", "qcert.haar_oracle", "weingarten_table"),
    ("haar_oracle.haar_moment", "qcert.haar_oracle", "haar_moment"),
    ("haar_oracle.exact_transcript_divergence", "qcert.haar_oracle",
     "exact_transcript_divergence"),
    ("haar_oracle.verify_moments_basic", "qcert.haar_oracle", "verify_moments_basic"),
    ("cli.minimal_copies", "qcert.cli", "minimal_copies"),
    ("cli.hidden_state", "qcert.cli", "hidden_state"),
)

# Modules reported as one self time over all their public functions.
MODULE_TARGETS = ("spectrum", "instances")

# Counter metrics besides <target>.calls and <target>.self_ms, with units.
COUNTERS = {
    "measurement.povm_bytes": "bytes-computed",
    "certify.rounds": "count",
    "certify.discards": "copies",
    "haar_oracle.weingarten_table.misses": "count",
    "haar_oracle.exact_transcript_divergence.transcripts": "count",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _povm_bytes(tracer, args, kwargs, result, before):
    elements = getattr(_arg(args, kwargs, 1, "m"), "elements", None)
    tracer.counters["measurement.povm_bytes"] += int(getattr(elements, "nbytes", 0))


def _copies_before(args, kwargs):
    return args[0].copies_used


def _conditional_charge(tracer, args, kwargs, result, before):
    charged = args[0].copies_used - before
    accepted = int(_arg(args, kwargs, 2, "n"))
    tracer.counters["certify.discards"] += charged - accepted
    tracer.counters["certify.accepted"] += accepted
    tracer.counters["certify.charged"] += charged


def _basic_rounds(tracer, args, kwargs, result, before):
    tracer.counters["certify.rounds"] += int(result.diagnostics.get("rounds", 0))


def _transcripts(tracer, args, kwargs, result, before):
    tracer.counters["haar_oracle.exact_transcript_divergence.transcripts"] += int(
        result.num_transcripts)


# metric prefix -> (pre-call hook or None, post-call hook)
HOOKS = {
    "measurement.outcome_distribution": (None, _povm_bytes),
    "certify.ConditionalCopySource.measure_batch": (_copies_before, _conditional_charge),
    "certify.basic_certify": (None, _basic_rounds),
    "haar_oracle.exact_transcript_divergence": (None, _transcripts),
}


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end)
        self._stack: list[list] = []  # [id, op, child_seconds]
        self._next_id = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._weingarten = None

    def call(self, name: str, fn, args=(), kwargs=None, *, op: bool = False):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``op=True`` opens a new op: every span below it carries its id.
        """
        kwargs = kwargs or {}
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        op_id = span_id if op else (parent[1] if parent else None)
        frame = [span_id, op_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if parent is not None:
                parent[2] += duration
            self.calls[name] += 1
            self.self_s[name] += duration - frame[2]
            self.spans.append((span_id, parent[0] if parent else None, op_id, name, start, end))

    def _wrap(self, name: str, fn):
        pre, post = HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = pre(args, kwargs) if pre else None
            result = tracer.call(name, fn, args, kwargs)
            if post:
                post(tracer, args, kwargs, result, before)
            return result

        for attr in ("cache_info", "cache_clear"):  # keep lru_cache introspection working
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self):
        """Wrap every target in the loaded qcert modules."""
        for name, module_name, path in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            if name == "haar_oracle.weingarten_table":
                self._weingarten = original
            wrapped = self._wrap(name, original)
            if owner_name:
                setattr(owner, attr, wrapped)
            else:
                _rebind(original, wrapped)
        for short in MODULE_TARGETS:
            module = importlib.import_module(f"qcert.{short}")
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    _rebind(obj, self._wrap(f"{short}.{attr}", obj))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name, _, _ in TARGETS:
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            out[f"{name}.self_ms"] = (self.self_s.get(name, 0.0) * 1e3, "ms")
        for short in MODULE_TARGETS:
            total = sum(s for n, s in self.self_s.items() if n.startswith(short + "."))
            out[f"{short}.self_ms"] = (total * 1e3, "ms")
        if self._weingarten is not None and hasattr(self._weingarten, "cache_info"):
            self.counters["haar_oracle.weingarten_table.misses"] = (
                self._weingarten.cache_info().misses)
        for name, unit in COUNTERS.items():
            out[name] = (self.counters.get(name, 0), unit)
        charged = self.counters.get("certify.charged", 0)
        out["certify.accept_rate"] = (
            self.counters.get("certify.accepted", 0) / charged if charged else 0.0, "1")
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for span_id, parent, op_id, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op_id,
                                     "name": name, "start": start, "end": end}) + "\n")


def _rebind(original, wrapped) -> None:
    """Replace every module-level binding of ``original`` inside qcert."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "qcert" or module_name.startswith("qcert.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
