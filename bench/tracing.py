"""Span tracing around ``autalg``'s public functions, installed from
outside the package.

Each traced call records a span (name, start, end, parent span, operation
id) in memory.  Wrappers replace the module attributes that callers look
up, so a call routed through that module lands in the wrapper; the
``SemigroupTable`` constructor is traced through its ``__post_init__``,
and the multiply callback that ``semigroupify`` hands to
``close_generators`` is only counted, since a span per product would cost
more than the product.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

# (module whose attribute callers look up, attribute, span name)
TRACED = [
    ("autalg.schema", "load", "schema.load"),
    ("autalg.schema", "dumps", "schema.dumps"),
    ("autalg.first_type", "close_generators", "core.close_generators"),
    ("autalg.cli", "semigroupify", "first_type.semigroupify"),
    ("autalg.cli", "check_first_axioms", "first_type.check_first_axioms"),
    ("autalg.cli", "check_second_axioms", "second_type.check_second_axioms"),
    ("autalg.second_type", "check_second_axioms", "second_type.check_second_axioms"),
    ("autalg.cli", "check_serial", "serial.check_serial"),
    ("autalg.cli", "check_semigroup_triple", "cascade.check_semigroup_triple"),
    ("autalg.cli", "wreath_product", "cascade.wreath_product"),
    ("autalg.cascade", "wreath_product", "cascade.wreath_product"),
    ("autalg.cli", "embed_into_wreath", "cascade.embed_into_wreath"),
    ("autalg.cli", "cascade_semigroup", "cascade.cascade_semigroup"),
    ("autalg.cascade", "cascade_semigroup", "cascade.cascade_semigroup"),
    ("autalg.cli", "quotient_construct", "second_type.quotient_construct"),
    ("autalg.cli", "element_order_bounded", "mealy.element_order_bounded"),
    ("autalg.cli", "element_equal", "mealy.element_equal"),
    ("autalg.mealy", "element_equal", "mealy.element_equal"),
    ("autalg.cli", "minimize_element", "mealy.minimize_element"),
    ("autalg.mealy", "minimize_element", "mealy.minimize_element"),
    ("autalg.cli", "element_compose", "mealy.element_compose"),
    ("autalg.mealy", "element_compose", "mealy.element_compose"),
]

# span name -> (quantity, measure(args, result))
QUANTITIES: dict[str, tuple[str, Callable]] = {
    "schema.load": ("bytes", lambda args, result: os.path.getsize(args[0])),
    "schema.dumps": ("bytes", lambda args, result: len(result)),
    "core.close_generators": ("elements", lambda args, result: len(result.elements)),
    "cascade.wreath_product": ("elements", lambda args, result: result.table.order),
    "core.SemigroupTable": ("cells", lambda args, result: args[0].order ** 2),
}

SPAN_NAMES = ["cli.main", "core.SemigroupTable"] + sorted({name for _, _, name in TRACED})

# The per-layer metrics a traced run reports: name -> (unit, better).
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "core.close_generators.self_s": ("s", "lower"),
    "core.close_generators.elements": ("count", "higher"),
    "core.multiply.calls": ("count", "lower"),
    "core.closure.new_per_product": ("ratio", "higher"),
    "core.SemigroupTable.self_s": ("s", "lower"),
    "core.SemigroupTable.calls": ("count", "lower"),
    "core.SemigroupTable.cells": ("count", "lower"),
    "first_type.semigroupify.self_s": ("s", "lower"),
    "first_type.check_first_axioms.self_s": ("s", "lower"),
    "second_type.check_second_axioms.self_s": ("s", "lower"),
    "serial.check_serial.self_s": ("s", "lower"),
    "cascade.check_semigroup_triple.self_s": ("s", "lower"),
    "cascade.wreath_product.self_s": ("s", "lower"),
    "cascade.wreath_product.elements": ("count", "higher"),
    "cascade.embed_into_wreath.self_s": ("s", "lower"),
    "cascade.cascade_semigroup.self_s": ("s", "lower"),
    "second_type.quotient_construct.self_s": ("s", "lower"),
    "mealy.element_order_bounded.self_s": ("s", "lower"),
    "mealy.element_equal.self_s": ("s", "lower"),
    "mealy.minimize_element.self_s": ("s", "lower"),
    "mealy.element_compose.self_s": ("s", "lower"),
    "mealy.element_compose.calls": ("count", "lower"),
    "schema.load.self_s": ("s", "lower"),
    "schema.load.bytes": ("bytes", "lower"),
    "schema.dumps.self_s": ("s", "lower"),
    "schema.dumps.bytes": ("bytes", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "setup.import_numpy_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    **{f"{name}.errors": ("count", "lower") for name in SPAN_NAMES},
}


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int
    parent: int
    op: str | None


class Tracer:
    """Spans and counters for one run; ``op`` tags new spans."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op: str | None = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        quantity = QUANTITIES.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(Span(name, self.clock(), 0,
                                   self.stack[-1] if self.stack else -1, self.op))
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                self.stack.pop()
                self.spans[index].end = self.clock()
            if quantity is not None:
                self.counts[f"{name}.{quantity[0]}"] += quantity[1](args, result)
            return result
        return traced

    def install(self) -> Callable[[], None]:
        """Wrap every traced function; returns the undo."""
        undo = []
        for module, attr, name in TRACED:
            mod = importlib.import_module(module)
            undo.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        first_type = importlib.import_module("autalg.first_type")
        multiply, counts = first_type.multiply_pair, self.counts

        def counted(p, q):
            counts["core.multiply.calls"] += 1
            return multiply(p, q)
        undo.append((first_type, "multiply_pair", multiply))
        first_type.multiply_pair = counted
        table = importlib.import_module("autalg.core").SemigroupTable
        undo.append((table, "__post_init__", table.__post_init__))
        table.__post_init__ = self.wrap("core.SemigroupTable", table.__post_init__)

        def restore() -> None:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
        return restore


def covered(intervals: list[tuple[int, int]], start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[str, int]:
    """Per name, the summed span time not covered by the span's children."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    result: dict[str, int] = defaultdict(int)
    for i, span in enumerate(spans):
        result[span.name] += (span.end - span.start) - covered(children[i], span.start, span.end)
    return dict(result)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per traced pass: self seconds, calls and errors of every span name,
    the counted quantities, and the closure's useful-product ratio."""
    selfs = self_times(tracer.spans)
    calls = Counter(span.name for span in tracer.spans)
    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = selfs.get(name, 0) / 1e9 / passes
        metrics[f"{name}.calls"] = calls[name] / passes
        metrics[f"{name}.errors"] = tracer.counts[name + ".errors"] / passes
    for name, (quantity, _) in QUANTITIES.items():
        metrics[f"{name}.{quantity}"] = tracer.counts[f"{name}.{quantity}"] / passes
    products = tracer.counts["core.multiply.calls"]
    metrics["core.multiply.calls"] = products / passes
    metrics["core.closure.new_per_product"] = (
        tracer.counts["core.close_generators.elements"] / products if products else 0.0)
    return metrics
