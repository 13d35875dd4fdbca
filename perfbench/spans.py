"""Spans around the public functions of every ``leavitt`` module.

The tracer patches, from outside the program, each public function of
``leavitt.graph``, ``moves``, ``corners``, ``ktheory``, ``algebra``, ``monoid``
and ``cli`` in every ``leavitt.*`` namespace that binds it, plus
``Graph.__post_init__`` and ``LpaElement.__mul__`` on their classes.  Each
call records a span (name, start, end, parent span, op id) in memory; work
counts are taken from arguments and results after the span has closed.  The
spans are written once, when the run ends, and ``summarize`` turns them into
the per-layer table: self time per layer (span time minus the time covered by
child spans), counts, and ratios with their bases.

Print the table of a saved span file::

    python3 perfbench/spans.py perfbench/out/library-1/spans.json.gz
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter

LAYERS = ("graph", "moves", "corners", "ktheory", "algebra", "monoid", "cli")

# Which per-layer time metric a span's self time lands in.  A public function
# not listed here lands in "<layer>.other_s", so the layers always add up.
BUCKETS = {
    "graph.graph_hash": "graph.hash",
    "graph.fnv1a64": "graph.hash",
    "graph.Graph.__post_init__": "graph.validate",
    "graph.parse_graph": "graph.parse",
    "graph.serialize_graph": "graph.serialize",
    **{f"graph.{f}": "graph.closure" for f in (
        "hereditary_closure", "saturated_closure", "hs_closure", "is_hereditary",
        "is_saturated", "reaches", "classify")},
    "moves.desourcify": "moves.desourcify",
    **{f"moves.{f}": "moves.local" for f in (
        "attach_head", "subdivide_edge", "attach_sources", "eliminate_source")},
    "moves.expand_hereditary": "moves.expand",
    "moves.entry_paths": "moves.entry_paths",
    "corners.build_forest": "corners.build_forest",
    "corners.t_corner": "corners.t_corner",
    "corners.corner_weights": "corners.weights",
    "corners.corner_family": "corners.family",
    "ktheory.smith_normal_form": "ktheory.snf",
    "ktheory.presentation_matrix": "ktheory.presentation",
    "ktheory.adjacency": "ktheory.presentation",
    "ktheory.k_summary": "ktheory.summary",
    "ktheory.classify_algebra": "ktheory.summary",
    "algebra.verify_ck_family": "algebra.verify",
    "algebra.LpaElement.__mul__": "algebra.mul",
    "algebra.star": "algebra.star",
    "algebra.element": "algebra.element",
    "algebra.zero": "algebra.element",
    "algebra.normal_form": "algebra.normal_form",
    "algebra.parse_element": "algebra.parse",
    "algebra.parse_family": "algebra.parse",
    "algebra.format_element": "algebra.format",
    "algebra.format_family": "algebra.format",
    "monoid.equivalent": "monoid.equiv",
    "monoid.expand": "monoid.steps",
    "monoid.contract": "monoid.steps",
    "monoid.is_full": "monoid.full",
    "monoid.rebalance_full": "monoid.full",
    "cli.run": "cli.self",
}

TIME_METRICS = sorted(set(BUCKETS.values()) | {f"{layer}.other" for layer in LAYERS[:-1]})

COUNT_METRICS = {
    "graph.hash_calls": "count",  # graph_hash calls
    "graph.hash_bytes": "bytes",  # serialized bytes fed to fnv1a64
    "graph.graphs_built": "count",  # Graph objects validated
    "moves.trace_records": "count",  # move records written by desourcify
    "moves.entry_paths": "count",  # entry paths enumerated
    "corners.corner_edges": "count",  # edges of the corner graphs built
    "ktheory.snf_calls": "count",
    "ktheory.matrix_cells": "count",  # rows x cols summed over SNF inputs
    "ktheory.factor_bits_max": "bits",  # largest invariant factor
    "algebra.relations": "count",  # V + V^2 + 2E + E^2 + emitting V per verify
    "algebra.mul_calls": "count",  # LpaElement products
    "algebra.normal_form_calls": "count",
    "algebra.parse_calls": "count",  # parse_element calls
    "monoid.states_generated": "count",  # expand plus contract calls
}


def _relations(target) -> int:
    v, e = len(target.vertices), len(target.edges)
    emitting = len({x.src for x in target.edges})
    return v + v * v + 2 * e + e * e + emitting


# span name -> function(counts, maxes, args, result), run after the span closes
def _count(name, amount=lambda a, r: 1):
    def hook(counts, maxes, args, result):
        counts[name] += amount(args, result)
    return hook


def _snf_hook(counts, maxes, args, result):
    m = args[0]
    counts["ktheory.snf_calls"] += 1
    counts["ktheory.matrix_cells"] += m.rows * m.cols
    bits = max((d.bit_length() for d in result), default=0)
    maxes["ktheory.factor_bits_max"] = max(maxes.get("ktheory.factor_bits_max", 0), bits)


HOOKS = {
    "graph.graph_hash": _count("graph.hash_calls"),
    "graph.fnv1a64": _count("graph.hash_bytes", lambda a, r: len(a[0])),
    "graph.Graph.__post_init__": _count("graph.graphs_built"),
    "moves.desourcify": _count("moves.trace_records", lambda a, r: len(r[1].records)),
    "moves.entry_paths": _count("moves.entry_paths", lambda a, r: len(r)),
    "corners.t_corner": _count("corners.corner_edges", lambda a, r: len(r.edges)),
    "ktheory.smith_normal_form": _snf_hook,
    "algebra.verify_ck_family": _count("algebra.relations", lambda a, r: _relations(a[0])),
    "algebra.LpaElement.__mul__": _count("algebra.mul_calls"),
    "algebra.normal_form": _count("algebra.normal_form_calls"),
    "algebra.parse_element": _count("algebra.parse_calls"),
    "monoid.expand": _count("monoid.states_generated"),
    "monoid.contract": _count("monoid.states_generated"),
}


class Tracer:
    """Records spans while installed; ``op`` names the op being run."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start ns, end ns, parent index, op index)
        self.counts: Counter = Counter()
        self.maxes: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, self.op)
            if hook is not None:
                hook(self.counts, self.maxes, args, result)
            return result

        return traced

    def install(self) -> None:
        import importlib

        modules = {layer: importlib.import_module(f"leavitt.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if callable(fn) and not isinstance(fn, type) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "leavitt" and not name.startswith("leavitt."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for cls, attr, name in ((modules["graph"].Graph, "__post_init__", "graph.Graph.__post_init__"),
                                (modules["algebra"].LpaElement, "__mul__", "algebra.LpaElement.__mul__")):
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self, path, meta: dict) -> None:
        """Write the spans, counts and run facts as one gzip'd JSON object."""
        payload = dict(meta, names=self.names, counts=dict(self.counts),
                       maxes=self.maxes, spans=self.spans)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))


def summarize(data: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, per pass of the op list.

    ``data`` holds ``names``, ``spans``, ``counts``, ``maxes`` and the run
    facts ``passes``, ``analyze_ops``, ``traced_wall_s`` and ``untraced_wall_s``
    (mean time a traced and an untraced pass spent inside its ops).
    """
    names, spans = data["names"], data["spans"]
    passes = data["passes"]
    bucket_of = []
    for name in names:
        layer = name.split(".", 1)[0]
        bucket_of.append(BUCKETS.get(name, f"{layer}.other"))
    child = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_ns = Counter()
    inclusive_ns = Counter()
    longest_ns = Counter()
    for i, (index, start, end, _, _) in enumerate(spans):
        dur = end - start
        self_ns[bucket_of[index]] += dur - child[i]
        name = names[index]
        inclusive_ns[name] += dur
        longest_ns[name] = max(longest_ns[name], dur)

    out: dict[str, tuple[float, str]] = {}
    for bucket in TIME_METRICS:
        out[f"{bucket}_s"] = (self_ns[bucket] / 1e9 / passes, "s")
    for layer in LAYERS[:-1]:
        total = sum(v for k, v in self_ns.items() if k.startswith(layer + "."))
        out[f"{layer}.self_s"] = (total / 1e9 / passes, "s")
    counts = data["counts"]
    for name, unit in COUNT_METRICS.items():
        value = data["maxes"].get(name, 0) if name.endswith("_max") else counts.get(name, 0) / passes
        out[name] = (value, unit)
    edges = counts.get("corners.corner_edges", 0)
    out["corners.t_corner_us_per_edge"] = (
        self_ns["corners.t_corner"] / 1e3 / edges if edges else 0.0, "us")
    relations = counts.get("algebra.relations", 0)
    out["algebra.verify_us_per_relation"] = (
        inclusive_ns["algebra.verify_ck_family"] / 1e3 / relations if relations else 0.0, "us")
    analyzes = data["analyze_ops"] * passes
    out["ktheory.snf_per_analyze"] = (
        counts.get("ktheory.snf_calls", 0) / analyzes if analyzes else 0.0, "ratio")
    out["ktheory.snf_max_s"] = (longest_ns["ktheory.smith_normal_form"] / 1e9, "s")
    out["monoid.equiv_max_s"] = (longest_ns["monoid.equivalent"] / 1e9, "s")
    layer_sum = sum(out[f"{layer}.self_s"][0] for layer in LAYERS[:-1]) + out["cli.self_s"][0]
    out["trace.wall_s"] = (data["traced_wall_s"], "s")
    out["trace.accounted_ratio"] = (layer_sum / data["traced_wall_s"], "ratio")
    out["trace.overhead_ratio"] = (data["traced_wall_s"] / data["untraced_wall_s"] - 1, "ratio")
    out["trace.spans"] = (len(spans) / passes, "count")
    return out


def format_table(metrics: dict[str, tuple[float, str]]) -> str:
    lines = []
    for name in sorted(metrics):
        value, unit = metrics[name]
        lines.append(f"{name:34s} {value:14.6f} {unit}")
    return "\n".join(lines)


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit("usage: python3 perfbench/spans.py SPANS.json.gz")
    with gzip.open(sys.argv[1], "rt", encoding="utf-8") as fh:
        data = json.load(fh)
    metrics = summarize(data)
    metrics.update({k: tuple(v) for k, v in data.get("outside", {}).items()})
    print(format_table(metrics))


if __name__ == "__main__":
    main()
