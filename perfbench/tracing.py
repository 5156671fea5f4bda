"""Spans around the calls into each qcilink layer, recorded from outside.

The program is not edited: each wrapper replaces a function in the module
that looks it up (``harness.demap``, ``demapper.radial_inverse``, ...) and
is removed again when the traced pass ends. Spans stay in memory, each with
its name, start, end, parent span and run id, and are written out after
the pass. A span's self time is its duration minus that of its children;
the wrapped calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import math
import multiprocessing
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "name", "parent", "run", "start", "end", "attrs")

    def __init__(self, sid, name, parent, run):
        self.id, self.name, self.parent, self.run = sid, name, parent, run
        self.start = self.end = 0
        self.attrs = {}

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9

    def as_dict(self, self_s: float) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent, "run": self.run,
                "start_ns": self.start, "end_ns": self.end, "self_s": self_s, **self.attrs}


class Patches:
    """Replaces module attributes and puts the originals back on ``restore``."""

    def __init__(self):
        self._saved = []

    def replace(self, module, attr, make_wrapper) -> None:
        original = getattr(module, attr, None)
        if original is None:  # the layer no longer has this entry point
            return
        self._saved.append((module, attr, original))
        wrapper = functools.wraps(original)(make_wrapper(original))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0  # id of the harness.run() call in progress
        self._stack: list[int] = []
        self.patches = Patches()

    def wrap(self, module, attr, name, attrs=None) -> None:
        """Record a span named ``name`` around every call of ``module.attr``.

        ``attrs(args, kwargs, result)`` adds counts to the span; it runs
        after the span has ended, so its cost is not charged to the layer.
        """

        def make(original):
            def wrapper(*args, **kwargs):
                span = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                            self.run)
                self.spans.append(span)
                self._stack.append(span.id)
                span.start = time.perf_counter_ns()
                try:
                    result = original(*args, **kwargs)
                finally:
                    span.end = time.perf_counter_ns()
                    self._stack.pop()
                if attrs is not None:
                    span.attrs = attrs(args, kwargs, result)
                return result
            return wrapper

        self.patches.replace(module, attr, make)

    def self_times(self) -> list:
        child = [0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [(s.end - s.start - c) * 1e-9 for s, c in zip(self.spans, child)]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span, self_s in zip(self.spans, self.self_times()):
                fh.write(json.dumps(span.as_dict(self_s)) + "\n")


BLOCK_TASKS = ("_gmi_task", "_uncoded_task", "_coded_task")


class BlockCounter:
    """Counts harness block tasks, including those run in pool workers.

    The harness starts its pool with ``fork`` and sends task functions by
    name, so workers inherit the wrapped functions and this shared counter.
    """

    def __init__(self, harness):
        self.harness = harness
        self.value = multiprocessing.get_context("fork").Value("q", 0)
        self.patches = Patches()

    def __enter__(self):
        counter = self.value

        def make(original):
            def wrapper(*args, **kwargs):
                with counter.get_lock():
                    counter.value += 1
                return original(*args, **kwargs)
            return wrapper

        for attr in BLOCK_TASKS:
            self.patches.replace(self.harness, attr, make)
        return self

    def __exit__(self, *exc):
        self.patches.restore()

    @property
    def count(self) -> int:
        return int(self.value.value)


def install_layer_spans(tracer: Tracer, harness, demapper, metrics) -> None:
    """Wrap the entry points of every layer on the Monte Carlo path."""

    def demapped(args, kwargs, frame):
        return {"kind": args[0], "M": args[2].M, "n": frame.num_symbols,
                "distance_evals": frame.distance_evals, "map_evals": frame.map_evals}

    w = tracer.wrap
    w(harness, "run", "harness.run",
      lambda a, k, r: {"mode": a[0].mode, "family": a[0].family, "M": a[0].M,
                       "demapper": a[0].demapper})
    w(harness, "build_context", "harness.build_context")
    w(harness, "load_code", "harness.load_code")
    for attr in BLOCK_TASKS:
        w(harness, attr, "harness.block")
    # demap is looked up by the BER tasks and the complexity mode (harness)
    # and by the GMI scorer (metrics)
    w(harness, "demap", "demapper.demap", demapped)
    w(metrics, "demap", "demapper.demap", demapped)
    w(harness, "estimate_affine_compensation", "demapper.estimate_affine_compensation")
    w(demapper, "llr_pam", "demapper.llr_pam",
      lambda a, k, r: {"n": r.num_symbols, "d2_bytes": r.num_symbols * a[1].M * 8})
    w(demapper, "llr_exact_2d", "demapper.llr_exact_2d")
    w(demapper, "_d2_2d", "demapper.d2_2d", lambda a, k, r: {"d2_bytes": int(r.nbytes)})
    # DemapContext.unmap looks radial_inverse up in the demapper module
    w(demapper, "radial_inverse", "geometry.radial_inverse", lambda a, k, r: {"n": r.size // 2})
    w(harness, "gmi_symbol_scores", "metrics.gmi_symbol_scores", lambda a, k, r: {"n": int(r.size)})
    w(harness, "scatter_dump", "metrics.scatter_dump")
    w(harness, "encode", "coding.encode", lambda a, k, r: {"bits": int(r.size)})
    w(harness, "decode_bp", "coding.decode_bp",
      lambda a, k, r: {"frames": int(r[2].size), "iters": int(r[2].sum()),
                       "converged": int(r[1].sum())})
    w(harness, "interleave", "coding.interleave")
    w(harness, "deinterleave", "coding.interleave")
    w(harness, "info_bits_of", "coding.info_bits_of")


# Demapper kinds whose counter law is M distance evals per symbol; the
# decomposed kinds cost 2*sqrt(M).
FULL_2D_KINDS = ("exact2d", "maxlog2d", "qci_remapped_2d")


def expected_evals_per_sym(kind: str, M: int) -> int:
    return M if kind in FULL_2D_KINDS else 2 * math.isqrt(M)


def _ratio(num, den, scale=1.0) -> float:
    return num * scale / den if den else 0.0


def _demap_totals(tracer: Tracer) -> dict:
    """(demapper kind, M) -> [seconds, symbols, distance evals] over demap spans."""
    rows = defaultdict(lambda: [0.0, 0, 0])
    for span in tracer.spans:
        if span.name == "demapper.demap":
            row = rows[(span.attrs["kind"], span.attrs["M"])]
            row[0] += span.seconds
            row[1] += span.attrs["n"]
            row[2] += span.attrs["distance_evals"]
    return rows


def layer_metrics(tracer: Tracer, kind_ms) -> dict:
    """Per-layer figures of one traced pass, keyed by metric name.

    ``kind_ms`` lists the (demapper kind, M) pairs to report; a pair or a
    layer that did not run in the pass reads 0.
    """
    tot = defaultdict(float)
    self_tot = defaultdict(float)
    cnt = defaultdict(int)  # "<span name>:<attr>" -> summed count
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        tot[span.name] += span.seconds
        self_tot[span.name] += self_s
        for key, val in span.attrs.items():
            if isinstance(val, int):
                cnt[f"{span.name}:{key}"] += val

    out = {}
    demap = _demap_totals(tracer)
    for kind, M in kind_ms:
        s, n, ev = demap.get((kind, M), (0.0, 0, 0))
        p = f"demapper.{kind}.M{M}"
        out[f"{p}.s"] = s
        out[f"{p}.ns_per_sym"] = _ratio(s, n, 1e9)
        out[f"{p}.ns_per_distance_eval"] = _ratio(s, ev, 1e9)
        out[f"{p}.distance_evals_per_sym"] = _ratio(ev, n)
    out["demapper.llr_pam.s"] = tot["demapper.llr_pam"]
    out["demapper.estimate_affine_compensation.s"] = tot["demapper.estimate_affine_compensation"]
    out["demapper.map_evals_per_sym"] = _ratio(cnt["demapper.demap:map_evals"], cnt["demapper.demap:n"])
    out["demapper.d2_bytes_computed"] = float(
        cnt["demapper.d2_2d:d2_bytes"] + cnt["demapper.llr_pam:d2_bytes"])
    out["geometry.radial_inverse.s"] = tot["geometry.radial_inverse"]
    out["geometry.radial_inverse.ns_per_point"] = _ratio(
        tot["geometry.radial_inverse"], cnt["geometry.radial_inverse:n"], 1e9)
    out["metrics.gmi_symbol_scores.self_s"] = self_tot["metrics.gmi_symbol_scores"]
    out["metrics.gmi_symbol_scores.ns_per_sym"] = _ratio(
        self_tot["metrics.gmi_symbol_scores"], cnt["metrics.gmi_symbol_scores:n"], 1e9)
    out["coding.encode.s"] = tot["coding.encode"]
    out["coding.encode.ns_per_bit"] = _ratio(tot["coding.encode"], cnt["coding.encode:bits"], 1e9)
    out["coding.decode_bp.s"] = tot["coding.decode_bp"]
    out["coding.decode_bp.us_per_frame_iter"] = _ratio(
        tot["coding.decode_bp"], cnt["coding.decode_bp:iters"], 1e6)
    out["coding.decode_bp.iters_per_frame"] = _ratio(
        cnt["coding.decode_bp:iters"], cnt["coding.decode_bp:frames"])
    out["coding.decode_bp.converged_fraction"] = _ratio(
        cnt["coding.decode_bp:converged"], cnt["coding.decode_bp:frames"])
    out["coding.interleave.s"] = tot["coding.interleave"]
    out["coding.info_bits_of.s"] = tot["coding.info_bits_of"]
    out["harness.run.self_s"] = self_tot["harness.run"]
    out["harness.block.self_s"] = self_tot["harness.block"]
    out["harness.build_context_s"] = tot["harness.build_context"]
    out["harness.load_code_s"] = tot["harness.load_code"]
    return out


def complexity_table(tracer: Tracer) -> list:
    """Distance evals next to wall time, per (demapper kind, M) that ran."""
    return [
        {"kind": kind, "M": M, "symbols": n, "distance_evals_per_sym": ev / n,
         "expected_evals_per_sym": expected_evals_per_sym(kind, M),
         "ns_per_distance_eval": s * 1e9 / ev, "ns_per_sym": s * 1e9 / n}
        for (kind, M), (s, n, ev) in sorted(_demap_totals(tracer).items(),
                                            key=lambda kv: (kv[0][1], kv[0][0]))
    ]
