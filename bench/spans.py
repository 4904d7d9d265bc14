"""Span tracing for the benchmark's traced run.

The tracer wraps named public functions of the library from outside: for
a plain function it rebinds the name in every ``cssbalance`` module that
imported it (``cli``, ``balance``, the package ``__init__`` and so on),
because a caller looks the name up in its own module; for a method it
patches the class. Each call records a span (label, start, end, parent)
in memory. A span's self time is its duration minus the durations of its
direct children, so the self time of an unwrapped helper accrues to its
nearest wrapped caller.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

from cssbalance.oracle import CapExceeded

PACKAGE = "cssbalance"


def _text_len(args, result):
    return len(args[0])


def _result_len(args, result):
    return len(result)


def _first_arg(args, result):
    return args[0]


# (label, module, attribute, probe). The attribute is "Class.method" for a
# method. A probe, when given, sees the call's arguments and result and
# returns a value kept per label: pcm text sizes, or the code an oracle scan
# was asked about (scan sizes are computed from it after the pass).
TARGETS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("gf2.rank", "gf2", "BitMatrix.rank", None),
    ("gf2.kernel_basis", "gf2", "BitMatrix.kernel_basis", None),
    ("gf2.pivot_columns", "gf2", "BitMatrix.pivot_columns", None),
    ("gf2.kron", "gf2", "BitMatrix.kron", None),
    ("gf2.transpose", "gf2", "BitMatrix.transpose", None),
    ("gf2.block", "gf2", "block", None),
    ("gf2.write_pcm", "gf2", "write_pcm", _result_len),
    ("gf2.parse_pcm", "gf2", "parse_pcm", _text_len),
    ("chain.homological_product", "chain", "homological_product", None),
    ("chain.validate", "chain", "ChainComplex.validate", None),
    ("constructions.build", "constructions", "CodeSpec.build", None),
    ("balance.distance_balance", "balance", "distance_balance", None),
    ("balance.bound_check", "balance", "bound_check", None),
    ("oracle.distance.classical", "oracle", "classical_distance", _first_arg),
    ("oracle.distance.x", "oracle", "quantum_distance_x", _first_arg),
    ("oracle.distance.z", "oracle", "quantum_distance_z", _first_arg),
    ("oracle.soundness", "oracle", "classical_soundness", _first_arg),
    ("io.save", "io", "save_classical", None),
    ("io.save", "io", "save_complex", None),
    ("io.load", "io", "load_matrix", None),
    ("io.load", "io", "load_classical", None),
    ("io.load", "io", "load_complex", None),
    ("io.load", "io", "load_css", None),
    ("io.load", "io", "load_code", None),
    ("cli", "cli", "main", None),
]

# Labels whose spans are summed into one layer metric.
GROUPS = {
    "oracle.distance.classical": "oracle.distance",
    "oracle.distance.x": "oracle.distance",
    "oracle.distance.z": "oracle.distance",
}

# Per-layer metric name -> unit. Every name is reported on every workload,
# as 0 where the workload never enters that layer.
LAYER_METRICS = {
    "gf2.rank.calls": "count",
    "gf2.rank.self_s": "s",
    "gf2.kernel_basis.calls": "count",
    "gf2.kernel_basis.self_s": "s",
    "gf2.pivot_columns.calls": "count",
    "gf2.kron.self_s": "s",
    "gf2.transpose.self_s": "s",
    "gf2.block.self_s": "s",
    "gf2.write_pcm.self_s": "s",
    "gf2.write_pcm.bytes": "bytes",
    "gf2.parse_pcm.self_s": "s",
    "gf2.parse_pcm.bytes": "bytes",
    "chain.homological_product.calls": "count",
    "chain.homological_product.self_s": "s",
    "chain.validate.self_s": "s",
    "constructions.build.calls": "count",
    "constructions.build.self_s": "s",
    "balance.distance_balance.calls": "count",
    "balance.bound_check.self_s": "s",
    "oracle.distance.calls": "count",
    "oracle.distance.self_s": "s",
    "oracle.distance.words_log2": "log2_words",
    "oracle.soundness.calls": "count",
    "oracle.soundness.self_s": "s",
    "oracle.soundness.cosets_log2": "log2_cosets",
    "oracle.cap_exceeded": "count",
    "io.save.self_s": "s",
    "io.load.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# Metrics that must repeat exactly from pass to pass and run to run.
EXACT_METRICS = [name for name, unit in LAYER_METRICS.items() if unit != "s"]


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self):
        self.labels: list[str] = []
        self.spans: list = []  # (label id, start ns, end ns, parent index)
        self.probes: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, label: str, fn, probe):
        label_id = len(self.labels)
        self.labels.append(label)
        spans, stack, probes = self.spans, self._stack, self.probes[label]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label_id, start, end, parent)
                if probe is not None:
                    probes.append((probe(args, result), exc))

        return traced

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for label, mod, attr, probe in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(label, original, probe))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(label, original, probe)
            for m in modules:
                if m.__dict__.get(attr) is original:
                    self._patch(m, attr, original, wrapped)

    def _patch(self, obj, attr, original, wrapped) -> None:
        setattr(obj, attr, wrapped)
        self._patches.append((obj, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per label (grouped labels merged)."""
        child_ns = [0] * len(self.spans)
        for label_id, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for i, (label_id, start, end, parent) in enumerate(self.spans):
            label = self.labels[label_id]
            label = GROUPS.get(label, label)
            calls[label] += 1
            self_ns[label] += end - start - child_ns[i]
        return dict(calls), {k: v / 1e9 for k, v in self_ns.items()}

    def dump(self) -> dict:
        return {"labels": self.labels, "spans": self.spans}


def _log2_or_zero(total: int) -> float:
    """log2 of a total count of words; 0 when there were none."""
    return math.log2(total) if total else 0.0


def scan_sizes(tracer: Tracer) -> dict[str, float]:
    """Computed, not measured: the size of each exhaustive scan the traced
    pass ran to completion, from the code it was asked about.

    A distance scan walks 2^dim ker words (the kernel of H, of H_Z for
    the X-distance, of H_X for the Z-distance); a soundness scan walks
    2^rank(H) syndrome cosets. Scans that return before walking (no
    logical qubit, no kernel, no checks, the full space) count zero;
    scans refused by the cap count into ``oracle.cap_exceeded``. Call this
    after ``uninstall`` so that the rank and kernel calls it makes are not
    traced.
    """
    kdim: dict = {}

    def kernel_dim(h) -> int:
        if h not in kdim:
            kdim[h] = len(h.kernel_basis())
        return kdim[h]

    refused = 0
    words = 0
    for label in ("oracle.distance.classical", "oracle.distance.x", "oracle.distance.z"):
        for code, exc in tracer.probes.get(label, ()):
            if isinstance(exc, CapExceeded):
                refused += 1
                continue
            if exc is not None:
                continue
            if label == "oracle.distance.classical":
                h = code.h
            else:
                if code.n - code.h_x.rank() - code.h_z.rank() == 0:
                    continue
                h = code.h_z if label == "oracle.distance.x" else code.h_x
            e = kernel_dim(h)
            if e:
                words += 1 << e
    cosets = 0
    for code, exc in tracer.probes.get("oracle.soundness", ()):
        if isinstance(exc, CapExceeded):
            refused += 1
            continue
        if exc is not None or code.s == 0 or code.t == 0:
            continue
        rank = code.t - kernel_dim(code.h)
        if rank:
            cosets += 1 << rank
    return {
        "oracle.distance.words_log2": _log2_or_zero(words),
        "oracle.soundness.cosets_log2": _log2_or_zero(cosets),
        "oracle.cap_exceeded": refused,
    }


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced pass except the overhead."""
    calls, self_s = tracer.totals()
    out: dict[str, float] = {}
    for name in LAYER_METRICS:
        label, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = calls.get(label, 0)
        elif kind == "self_s":
            out[name] = self_s.get(label, 0.0)
        elif kind == "bytes":
            out[name] = sum(n for n, _ in tracer.probes.get(label, ()))
    out.update(scan_sizes(tracer))
    return out


def write_spans(path, tracer: Tracer) -> None:
    """Write the spans of one traced pass as a JSON document."""
    with open(path, "w") as fh:
        json.dump(tracer.dump(), fh, separators=(",", ":"))
