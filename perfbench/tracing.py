"""Spans around the calls the benchmark makes into each layer.

The workbench itself carries no instrumentation. The traced run observes
it from outside: every call an op makes into a layer goes through a
wrapper that records a span, and a few names that one module imports
from another are rebound for the duration of the run, so that calls made
between layers are seen too. Only non-recursive functions are rebound;
wrapping a function that calls itself through its module global would
record a span per node and add a frame per level.
"""

from __future__ import annotations

import gzip
import json
import math
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

from fracterm import fractalk, ratio, rewrite, semantics, terms


def eval_span_name(args, kwargs):
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg", semantics.EvalConfig())
    return f"semantics.eval_term.{cfg.policy}.{cfg.shape_id}"


class Tracer:
    """Spans kept in memory: name, start, end, parent span and op id."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.op_variants: list[str] = []
        self.parsed_chars = 0
        self._stack: list[int] = []

    def begin_op(self, variant: str) -> int:
        """Open the span of one op; layer spans until end_op belong to it."""
        self.op_variants.append(variant)
        return self._open("op")

    def end_op(self, span: int) -> None:
        self._close(span)

    def _open(self, name: str) -> int:
        i = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(len(self.op_variants) - 1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    def add_child_spans(self, spans) -> None:
        """Attach spans recorded by a child process to the current op span."""
        base = len(self.starts)
        parent = self._stack[-1] if self._stack else -1
        op = len(self.op_variants) - 1
        for name, start, end, p in spans:
            self.names.append(name)
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(parent if p < 0 else base + p)
            self.ops.append(op)

    def wrap(self, name, fn):
        """fn with a span around each call; name may be a function of the arguments."""
        named = callable(name)

        def traced(*args, **kwargs):
            i = self._open(name(args, kwargs) if named else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        if name != "terms.parse_term":
            return traced

        def traced_parse(text, *args, **kwargs):
            self.parsed_chars += len(text)
            return traced(text, *args, **kwargs)

        return traced_parse

    def write(self, path, header: dict) -> None:
        with gzip.open(path, "wt") as out:
            out.write(json.dumps(header) + "\n")
            for i, name in enumerate(self.names):
                variant = self.op_variants[self.ops[i]] if self.ops[i] >= 0 else None
                row = [name, self.starts[i], self.ends[i], self.parents[i], self.ops[i], variant]
                out.write(json.dumps(row) + "\n")

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)


class SpanSummary:
    """Calls, busy time and self time per (span name, op variant), in one pass."""

    def __init__(self, tracer: Tracer):
        self.op_variants = tracer.op_variants
        self.parsed_chars = tracer.parsed_chars
        dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
        child_time = [0.0] * len(dur)
        for j, p in enumerate(tracer.parents):
            if p >= 0:
                child_time[p] += dur[j]
        self.stats: dict[tuple[str, str], list] = {}
        for i, name in enumerate(tracer.names):
            op = tracer.ops[i]
            key = (name, tracer.op_variants[op] if op >= 0 else "")
            row = self.stats.setdefault(key, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child_time[i]
        self.spans = len(dur)

    def _sum(self, column, name, variant, prefix):
        return sum(
            row[column]
            for (n, v), row in self.stats.items()
            if (n.startswith(name) if prefix else n == name) and variant in (None, v)
        )

    def calls(self, name, variant=None, prefix=False) -> int:
        return self._sum(0, name, variant, prefix)

    def busy(self, name, variant=None, prefix=False) -> float:
        return self._sum(1, name, variant, prefix)

    def self_time(self, name, variant=None) -> float:
        return self._sum(2, name, variant, False)

    def op_count(self, variant) -> int:
        return self.op_variants.count(variant)


def plain_api() -> SimpleNamespace:
    """The layer functions the ops call, unwrapped."""
    return SimpleNamespace(
        parse_term=terms.parse_term,
        format_term=terms.format_term,
        classify=terms.classify,
        eval_term=semantics.eval_term,
        rn_eval=ratio.rn_eval,
        flatten=rewrite.flatten,
        to_json=rewrite.RewriteTrace.to_json,
        simplify=rewrite.simplify,
        add_family_all=rewrite.add_family_all,
        parse_script=fractalk.parse_script,
        infer_levels=fractalk.infer_levels,
        check=fractalk.check,
    )


def traced_api(tracer: Tracer) -> SimpleNamespace:
    """The same functions, each call recorded as a span named after its layer."""
    w = tracer.wrap
    return SimpleNamespace(
        parse_term=w("terms.parse_term", terms.parse_term),
        format_term=w("terms.format_term", terms.format_term),
        classify=w("terms.classify", terms.classify),
        eval_term=w(eval_span_name, semantics.eval_term),
        rn_eval=w("ratio.rn_eval", ratio.rn_eval),
        flatten=w("rewrite.flatten", rewrite.flatten),
        to_json=w("rewrite.RewriteTrace.to_json", rewrite.RewriteTrace.to_json),
        simplify=w("rewrite.simplify", rewrite.simplify),
        add_family_all=w("rewrite.add_family_all", rewrite.add_family_all),
        parse_script=w("fractalk.parse_script", fractalk.parse_script),
        infer_levels=w("fractalk.infer_levels", fractalk.infer_levels),
        check=w("fractalk.check", fractalk.check),
    )


# (module, attribute, span name): calls made between layers.
REBOUND = (
    (terms, "contains_div", "terms.contains_div"),
    (rewrite, "contains_div", "terms.contains_div"),
    (fractalk, "parse_term", "terms.parse_term"),
    (fractalk, "classify", "terms.classify"),
    (fractalk, "eval_term", eval_span_name),
    (fractalk, "flatten", "rewrite.flatten"),
    (fractalk, "infer_levels", "fractalk.infer_levels"),
)


@contextmanager
def rebound(tracer: Tracer):
    """Route calls between layers through span wrappers, and restore them after."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in REBOUND]
    try:
        for (module, attr, name), (_, _, fn) in zip(REBOUND, saved):
            setattr(module, attr, tracer.wrap(name, fn))
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def loglog_slope(points) -> float:
    """Least-squares slope of log(y) over log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
