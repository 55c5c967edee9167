"""Spans around the library's public functions, and the per-layer metrics.

The tracer replaces each traced function at every module attribute through
which it is reached (``curvegroups.cli.apply_construction`` and
``curvegroups.zariski.apply`` are both ``constructions.apply``), plus two
methods: ``SingularityMultiset.__add__`` and ``PropertyFlags.__post_init__``.
Library source is not modified; :meth:`Tracer.uninstall` puts every
original back.

A span is (id, name, start, end, parent id, op id).  Self time is a span's
duration minus the durations of its direct children, accumulated on a
stack, so it stays correct through recursion (``drop``,
``format_type``, ``props_from_descriptor``).  Spans are kept in memory up
to ``span_cap`` and written out at the end; the aggregates cover every
span.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

# traced name -> (module, attribute); "Class.method" wraps a method
TRACED = {
    "fpgroup.smith_normal_form": ("fpgroup", "smith_normal_form"),
    "fpgroup.abelianization": ("fpgroup", "abelianization"),
    "fpgroup.cyclic_quotient_order": ("fpgroup", "cyclic_quotient_order"),
    "fpgroup.free_reduce": ("fpgroup", "free_reduce"),
    "extensions.central_extend": ("extensions", "central_extend"),
    "extensions.direct_sum": ("extensions", "direct_sum"),
    "extensions.props_from_descriptor": ("extensions", "props_from_descriptor"),
    "extensions.propagate_properties": ("extensions", "propagate_properties"),
    "extensions.PropertyFlags": ("extensions", "PropertyFlags.__post_init__"),
    "singularities.parse_type": ("singularities", "parse_type"),
    "singularities.format_type": ("singularities", "format_type"),
    "singularities.multiset_add": ("singularities", "SingularityMultiset.__add__"),
    "singularities.drop": ("singularities", "drop"),
    "curves.seed_smooth": ("curves", "seed_smooth"),
    "curves.seed_pencil": ("curves", "seed_pencil"),
    "curves.seed_generic_lines": ("curves", "seed_generic_lines"),
    "curves.custom_seed": ("curves", "custom_seed"),
    "constructions.apply": ("constructions", "apply"),
    "constructions.added_singularities": ("constructions", "added_singularities"),
    "constructions.audit_self_intersection": ("constructions", "audit_self_intersection"),
    "constructions.parse_spec": ("constructions", "parse_spec"),
    "meridians.replay": ("meridians", "replay"),
    "meridians.elem_first": ("meridians", "elem_first"),
    "meridians.elem_second": ("meridians", "elem_second"),
    "meridians.trace_lines": ("meridians", "trace_lines"),
    "zariski.enumerate_family": ("zariski", "enumerate_family"),
    "zariski.lift_pair": ("zariski", "lift_pair"),
    "zariski.combinatorics_equal": ("zariski", "combinatorics_equal"),
    "documents.render_document": ("documents", "render_document"),
    "documents.parse_document": ("documents", "parse_document"),
    "documents.pair_to_json": ("documents", "pair_to_json"),
    "documents.meridians_to_json": ("documents", "meridians_to_json"),
    "cli.main": ("cli", "main"),
    "cli.build_parser": ("cli", "build_parser"),
}

# the four seed constructors report as one layer entry
_ALIASES = {name: "curves.seed" for name in TRACED if name.startswith("curves.")}

PACKAGE = "curvegroups"


class Tracer:
    def __init__(self, modules: dict, span_cap: int = 20_000):
        self.modules = modules  # short name -> module object
        self.active = False
        self.op_id = 0
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._next_id = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(int)  # summed or maxed sizes
        self.samples: dict[str, list[tuple[float, float]]] = defaultdict(list)  # (size, seconds)
        self._restore: list[tuple[object, str, object]] = []
        self._order_of = modules["extensions"].order_of

    # -- installation -----------------------------------------------------

    def install(self):
        for name, (mod, attr) in TRACED.items():
            owner = self.modules[mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._replace(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").split(".")[0] != PACKAGE:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _replace(self, owner, key, wrapper):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn):
        tracer = self
        label = _ALIASES.get(name, name)
        observe = getattr(self, "_observe_" + name.split(".")[-1], None)

        @wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.calls[label] += 1
                tracer.self_s[label] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if len(tracer.spans) < tracer.span_cap:
                    tracer.spans.append((span_id, label, start, end, parent[0] if parent else None, tracer.op_id))
                else:
                    tracer.spans_dropped += 1
            if observe is not None:
                observe(args, result, duration)
            return result

        return traced

    # -- size observers, run after the span closes ------------------------

    def _max(self, key, value):
        if value > self.counters[key]:
            self.counters[key] = value

    def _observe_smith_normal_form(self, args, result, seconds):
        matrix = args[0]
        dim = max(len(matrix), len(matrix[0]) if matrix else 0)
        self.samples["fpgroup.smith_normal_form"].append((dim, seconds))
        self._max("fpgroup.smith_normal_form.max_dim", dim)
        self._max("fpgroup.smith_normal_form.max_factor_bits", max((d.bit_length() for d in result), default=0))

    def _observe_free_reduce(self, args, result, seconds):
        self.counters["fpgroup.free_reduce.letters_in"] += len(args[0].letters)
        self.counters["fpgroup.free_reduce.letters_cancelled"] += len(args[0].letters) - len(result.letters)

    def _observe_props_from_descriptor(self, args, result, seconds):
        order = self._order_of(args[0])
        self._max("extensions.props_from_descriptor.max_order_bits", order.bit_length() if order else 0)

    def _observe_parse_type(self, args, result, seconds):
        self.counters["singularities.parse_type.chars_in"] += len(args[0])

    def _observe_apply(self, args, result, seconds):
        total = args[1].kernel_order - 1
        self.counters["constructions.apply.total_counts"] += total
        self.samples["constructions.apply"].append((total, seconds))

    def _observe_replay(self, args, result, seconds):
        steps = len(result.trace) - 1
        self.counters["meridians.replay.steps"] += steps
        self.samples["meridians.replay"].append((steps, seconds))
        longest = max(len(w.letters) for w in [result.exceptional] + [w for _, w in result.fibers])
        self._max("meridians.max_word_letters", longest)

    def _observe_enumerate_family(self, args, result, seconds):
        self.counters["zariski.records_kept"] += len(result)
        self.samples["zariski.enumerate_family"].append((args[1], seconds))

    def _observe_render_document(self, args, result, seconds):
        self.counters["documents.render_document.bytes_out"] += len(result)

    def _observe_parse_document(self, args, result, seconds):
        self.counters["documents.parse_document.bytes_in"] += len(args[0])

    def _observe_main(self, args, result, seconds):
        self.counters["cli.main.exit_nonzero"] += result != 0

    # -- output shape, measured by the checks on output documents --------

    def observe_curve(self, curve: dict):
        parse_type = self.modules["singularities"].parse_type
        for text in curve["singularities"]:
            stored, runs = _entries_and_runs(parse_type(text))
            self.counters["singularities.stored_entries"] += stored
            self.counters["singularities.printed_runs"] += runs
        self._max("curves.log_len_max", len(curve["log"]))

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "op"], "dropped": self.spans_dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _entries_and_runs(t) -> tuple[int, int]:
    """Stored entries and printed runs of a singularity type, recursing
    into blow-down clusters."""
    stored = runs = 0
    previous = None
    for e in t.entries:
        stored += 1
        if isinstance(e, int):
            runs += e != previous
            previous = e
        else:
            runs += 1
            previous = None
            for cluster in e.clusters:
                s, r = _entries_and_runs(cluster)
                stored, runs = stored + s, runs + r
    return stored, runs


def loglog_slope(samples) -> float:
    """Least-squares slope of log(median seconds) against log(size), over
    distinct sizes >= 1; 0.0 when fewer than two sizes were seen."""
    points = _median_by_size(samples, lambda size: math.log(size) if size >= 1 else None)
    return _slope(points)


def growth_per_step(samples) -> float:
    """exp of the slope of log(median seconds) against size: the factor by
    which time grows per +1 of the size; 0.0 with fewer than two sizes."""
    points = _median_by_size(samples, float)
    return math.exp(_slope(points)) if len(points) >= 2 else 0.0


def _median_by_size(samples, x_of):
    by_size = defaultdict(list)
    for size, seconds in samples:
        by_size[size].append(seconds)
    points = []
    for size, times in by_size.items():
        x = x_of(size)
        median = statistics.median(times)
        if x is not None and median > 0:
            points.append((x, math.log(median)))
    return points


def _slope(points) -> float:
    if len({x for x, _ in points}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


# (metric, unit) for every per-layer metric; see layer_metrics for meanings
PER_LAYER = [
    ("fpgroup.smith_normal_form.calls", "count"),
    ("fpgroup.smith_normal_form.self_s", "s"),
    ("fpgroup.smith_normal_form.max_dim", "count"),
    ("fpgroup.smith_normal_form.max_factor_bits", "bits"),
    ("fpgroup.smith_normal_form.scaling", "slope"),
    ("fpgroup.abelianization.self_s", "s"),
    ("fpgroup.cyclic_quotient_order.self_s", "s"),
    ("fpgroup.free_reduce.calls", "count"),
    ("fpgroup.free_reduce.self_s", "s"),
    ("fpgroup.free_reduce.letters_in", "count"),
    ("fpgroup.free_reduce.letters_cancelled", "count"),
    ("extensions.central_extend.calls", "count"),
    ("extensions.central_extend.self_s", "s"),
    ("extensions.direct_sum.calls", "count"),
    ("extensions.direct_sum.self_s", "s"),
    ("extensions.props_from_descriptor.calls", "count"),
    ("extensions.props_from_descriptor.self_s", "s"),
    ("extensions.props_from_descriptor.max_order_bits", "bits"),
    ("extensions.propagate_properties.self_s", "s"),
    ("extensions.PropertyFlags.calls", "count"),
    ("extensions.PropertyFlags.self_s", "s"),
    ("singularities.parse_type.calls", "count"),
    ("singularities.parse_type.self_s", "s"),
    ("singularities.parse_type.chars_in", "count"),
    ("singularities.format_type.calls", "count"),
    ("singularities.format_type.self_s", "s"),
    ("singularities.multiset_add.calls", "count"),
    ("singularities.multiset_add.self_s", "s"),
    ("singularities.drop.self_s", "s"),
    ("singularities.entries_per_run", "ratio"),
    ("curves.seed.calls", "count"),
    ("curves.seed.self_s", "s"),
    ("curves.log_len_max", "count"),
    ("constructions.apply.calls", "count"),
    ("constructions.apply.self_s", "s"),
    ("constructions.apply.total_counts", "count"),
    ("constructions.apply.scaling", "slope"),
    ("constructions.added_singularities.calls", "count"),
    ("constructions.added_singularities.self_s", "s"),
    ("constructions.audit_self_intersection.calls", "count"),
    ("constructions.audit_self_intersection.self_s", "s"),
    ("constructions.parse_spec.self_s", "s"),
    ("meridians.replay.calls", "count"),
    ("meridians.replay.self_s", "s"),
    ("meridians.replay.steps", "count"),
    ("meridians.replay.scaling", "slope"),
    ("meridians.elem_first.self_s", "s"),
    ("meridians.elem_second.self_s", "s"),
    ("meridians.trace_lines.self_s", "s"),
    ("meridians.max_word_letters", "count"),
    ("zariski.enumerate_family.calls", "count"),
    ("zariski.enumerate_family.self_s", "s"),
    ("zariski.enumerate_family.scaling", "factor"),
    ("zariski.lift_pair.calls", "count"),
    ("zariski.lift_pair.self_s", "s"),
    ("zariski.records_kept", "count"),
    ("zariski.kept_ratio", "ratio"),
    ("zariski.combinatorics_equal.self_s", "s"),
    ("documents.render_document.calls", "count"),
    ("documents.render_document.self_s", "s"),
    ("documents.render_document.bytes_out", "bytes"),
    ("documents.parse_document.calls", "count"),
    ("documents.parse_document.self_s", "s"),
    ("documents.parse_document.bytes_in", "bytes"),
    ("documents.pair_to_json.self_s", "s"),
    ("documents.meridians_to_json.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.main.exit_nonzero", "count"),
    ("cli.build_parser.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

# maxima, ratios and fits are not divided by the number of passes
_NOT_PER_PASS = ("max_", "scaling", "ratio", "entries_per_run", "log_len_max")


def layer_metrics(tracer: Tracer, passes: int, overhead_ratio: float) -> dict[str, float]:
    """Every PER_LAYER metric.  Counts and self times are per pass over the
    traced ops; maxima, ratios and scaling fits cover the whole traced run."""
    c = tracer.counters
    derived = {
        "fpgroup.smith_normal_form.scaling": loglog_slope(tracer.samples["fpgroup.smith_normal_form"]),
        "constructions.apply.scaling": loglog_slope(tracer.samples["constructions.apply"]),
        "meridians.replay.scaling": loglog_slope(tracer.samples["meridians.replay"]),
        "zariski.enumerate_family.scaling": growth_per_step(tracer.samples["zariski.enumerate_family"]),
        "singularities.entries_per_run": c["singularities.stored_entries"] / c["singularities.printed_runs"]
        if c["singularities.printed_runs"]
        else 0.0,
        "zariski.kept_ratio": c["zariski.records_kept"] / tracer.calls["zariski.lift_pair"]
        if tracer.calls["zariski.lift_pair"]
        else 0.0,
        "trace.overhead_ratio": overhead_ratio,
    }
    out = {}
    for metric, _ in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if metric in derived:
            value = derived[metric]
        elif field == "calls":
            value = tracer.calls[layer]
        elif field == "self_s":
            value = tracer.self_s[layer]
        else:
            value = c[metric]
        if not any(tag in metric for tag in _NOT_PER_PASS):
            value = value / passes
        out[metric] = value
    return out
