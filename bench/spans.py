"""Span recorder and the wrappers the traced run puts around the program.

A span is [name, start, end, parent, op]: `parent` is the index of the
enclosing span in the same process (-1 at the top) and `op` the id of the
benchmark op it belongs to (None during set-up). Spans stay in memory and
are written once, when the process ends. A layer's self time is its span's
duration minus the time its child spans cover.

The wrappers live here, not in the program: each replaces a public function,
method or module attribute (for instance `parahol.linalg.rref`) in every
loaded module that holds a reference to it. A layer entered again from
inside itself is not recorded twice, and nothing is recorded while the
benchmark runs its own checks (`paused`), so counts are the program's.
Targets that a later version of the program no longer has are skipped and
read 0.
"""

import functools
import statistics
import sys
import time
from collections import Counter
from functools import cached_property


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = None
        self.paused = False
        self.active = False  # inside a traced pass; the benchmark's own counts use it

    def begin(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, layer, fn, on_result=None):
        """`fn` recorded as `layer`; `layer` may be a function of the arguments."""
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer(*args, **kwargs) if callable(layer) else layer
            if self.paused or (stack and spans[stack[-1]][0] == name):
                return fn(*args, **kwargs)
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced


def _classify_layer(datum, *args, **kwargs):
    return f"classify.classify_k{datum.algebra.k}"


def _oracle_layer(datum, *args, **kwargs):
    return "oracle.rank" if datum.algebra.k == 1 else "oracle.lattice"


def _count_verdict(counts, result):
    counts[f"classify.verdict_{result.verdict.value.lower()}"] += 1


def _count_oracle(counts, report):
    counts["oracle.attempted"] += 1
    counts["oracle.decided"] += int(report.decided)
    counts["oracle.points_checked"] += report.points_checked


# (layer, module, attribute, on_result); "Class.attr" names a class attribute.
# Layer names are what the per-layer metrics are called.
TARGETS = (
    ("schemas.validate", "jsonschema", "validate", None),
    ("jsonio.parse", "parahol.jsonio", "parse_named_element", None),
    ("jsonio.parse", "parahol.jsonio", "vector_from_json", None),
    ("jsonio.emit", "parahol.jsonio", "element_to_named_json", None),
    ("jsonio.emit", "parahol.jsonio", "fraction_to_json", None),
    ("families.build", "parahol.families", "build_conformal", None),
    ("families.build", "parahol.families", "build_cr", None),
    ("algebra.from_matrices", "parahol.algebra", "GradedLieAlgebra.from_matrices", None),
    ("algebra.killing_matrix", "parahol.algebra", "GradedLieAlgebra.killing_matrix", None),
    ("algebra.grading_element", "parahol.algebra", "GradedLieAlgebra.grading_element", None),
    ("algebra.validate", "parahol.algebra", "GradedLieAlgebra.validate", None),
    ("algebra.bracket", "parahol.algebra", "GradedLieAlgebra.bracket", None),
    ("algebra.exp_ad", "parahol.algebra", "GradedLieAlgebra.exp_ad", None),
    ("algebra.ad_matrix_of", "parahol.algebra", "GradedLieAlgebra.ad_matrix_of", None),
    ("linalg.solve_many", "parahol.linalg", "solve_many", None),
    ("linalg.solve_min_norm", "parahol.linalg", "solve_min_norm", None),
    ("linalg.nullspace", "parahol.linalg", "nullspace", None),
    ("linalg.rank", "parahol.linalg", "rank", None),
    ("linalg.rref", "parahol.linalg", "rref", None),
    ("scales.default_scale", "parahol.scales", "default_scale", None),
    (_classify_layer, "parahol.classify", "classify", _count_verdict),
    ("quadratic.attains_zero", "parahol.quadratic", "attains_zero", None),
    (_oracle_layer, "parahol.oracle", "brute_force_oracle", _count_oracle),
    ("flat.holonomy_at", "parahol.flat", "holonomy_at", None),
    ("flat.classify_at", "parahol.flat", "classify_at", None),
    ("identities.suite", "parahol.identities", "run_flat_identity_suite", None),
)

# every layer that gets _s / _calls / _call_p50_s metrics, in report order
LAYERS = (
    "bench.op", "bench.verify", "cli.driver_import",
    "schemas.validate", "jsonio.parse", "jsonio.emit",
    "families.build", "algebra.from_matrices", "algebra.killing_matrix",
    "algebra.grading_element", "algebra.validate", "linalg.solve_many",
    "algebra.bracket", "algebra.exp_ad", "algebra.ad_matrix_of",
    "linalg.solve_min_norm", "linalg.nullspace", "linalg.rank", "linalg.rref",
    "scales.default_scale", "classify.classify_k1", "classify.classify_k2",
    "quadratic.attains_zero", "oracle.rank", "oracle.lattice",
    "flat.holonomy_at", "flat.classify_at", "identities.suite",
)


def install(tracer):
    """Wrap every target that the loaded program has.

    Returns the replacements made, for `uninstall`, so untraced and traced
    passes can alternate in one process.
    """
    import importlib

    undo = []
    for layer, module_name, attr, on_result in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        if "." in attr:
            cls_name, name = attr.split(".")
            cls = getattr(module, cls_name, None)
            if cls is not None and name in cls.__dict__:
                undo.append((cls, name, cls.__dict__[name]))
                setattr(cls, name, _wrap_class_attr(tracer, cls, name, layer, on_result))
            continue
        original = getattr(module, attr, None)
        if original is None:
            continue
        traced = tracer.wrap(layer, original, on_result)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] not in ("parahol", module_name):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, traced)
    return undo


def uninstall(undo):
    for holder, name, value in reversed(undo):
        setattr(holder, name, value)


def _wrap_class_attr(tracer, cls, name, layer, on_result):
    raw = cls.__dict__[name]
    if isinstance(raw, cached_property):
        new = cached_property(tracer.wrap(layer, raw.func, on_result))
        new.__set_name__(cls, name)
        return new
    if isinstance(raw, property):
        return property(tracer.wrap(layer, raw.fget, on_result))
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(tracer.wrap(layer, raw.__func__, on_result))
    return tracer.wrap(layer, raw, on_result)


def self_times(spans):
    """Per span: duration minus the time covered by its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(span_lists, counts):
    """Per-layer metrics from the spans of every traced process of one run."""
    per_layer = {name: [] for name in LAYERS}
    for spans in span_lists:
        for s, own in zip(spans, self_times(spans)):
            per_layer.setdefault(s[0], []).append(own)
    metrics = {}
    for name in LAYERS:
        values = per_layer[name]
        metrics[f"{name}_s"] = (sum(values), "s")
        metrics[f"{name}_calls"] = (len(values), "count")
        metrics[f"{name}_call_p50_s"] = (statistics.median(values) if values else 0.0, "s")
    metrics["classify.calls"] = (len(per_layer["classify.classify_k1"])
                                 + len(per_layer["classify.classify_k2"]), "count")
    for verdict in ("inessential", "weylreducible", "essential"):
        key = f"classify.verdict_{verdict}"
        metrics[key] = (counts.get(key, 0), "count")
    metrics["classify.unverified_essential"] = (counts.get("classify.unverified_essential", 0), "count")
    metrics["oracle.points_checked"] = (counts.get("oracle.points_checked", 0), "count")
    attempted = counts.get("oracle.attempted", 0)
    metrics["oracle.decided_ratio"] = (
        counts.get("oracle.decided", 0) / attempted if attempted else 0.0, "ratio")
    return metrics
