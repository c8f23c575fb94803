"""Tracing for one benchmark child, applied from outside the program.

``install`` wraps the public functions of escalier's modules before
``cli.run`` is called.  Every module-level name bound to a wrapped function is
rebound, so calls through ``from ... import`` names (``counting.gf_strict``,
``bijections.decode``, ``oracle.minimal_generators`` ...) are seen too.

Each wrapped call at a module boundary records a span: id, parent span id,
name, start and end; the request id is the child's.  The hot
``IntPoly.__mul__``, ``IntPoly.exact_div`` and ``gauss_binomial`` are
aggregated only (calls and time, no span), since a strongly stable census
makes hundreds of thousands of multiplies.  Self time of a module is the time
inside its wrapped calls minus the time of the wrapped calls they make.
Only functions that the benchmark's requests reach are wrapped; calls that
are not (``Term`` and ``IntPoly`` value methods, private helpers) count
towards the caller.  ``starset`` is reached by no request and is not wrapped.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self, request_id: int):
        self.request_id = request_id
        self.stack: list[list] = []  # [span id, seconds spent in wrapped callees]
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)

    def wrap(self, module: str, name: str, fn, span: bool = True, before=None, after=None):
        """Wrap fn; before(args, kwargs) -> note runs first, after(tracer,
        args, kwargs, result, seconds, note) runs on a normal return."""
        key = f"{module}.{name}"
        stack, spans = self.stack, self.spans
        calls, seconds, self_s = self.calls, self.seconds, self.self_s
        ids = self._ids

        def traced(*args, **kwargs):
            note = before(args, kwargs) if before is not None else None
            parent = stack[-1][0] if stack else None
            sid = next(ids) if span else parent
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spent = end - start
                if stack:
                    stack[-1][1] += spent
                self_s[module] += spent - frame[1]
                calls[key] += 1
                seconds[key] += spent
                if span:
                    spans.append((sid, parent, key, start, end))
            if after is not None:
                after(self, args, kwargs, result, spent, note)
            return result

        return traced

    def summary(self) -> dict:
        return {
            "request": self.request_id,
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "spans": self.spans,
        }


# -- observers for the per-layer counters ----------------------------------------


def _count_len(counter: str):
    def after(tracer, args, kwargs, result, spent, note):
        tracer.counters[counter] += len(result)

    return after


def _add_result(counter: str):
    def after(tracer, args, kwargs, result, spent, note):
        tracer.counters[counter] += result

    return after


def _mul_products(a, b) -> int:
    """Coefficient products the schoolbook loop performs, from the operand
    lengths and the truncation alone (zero coefficients are not skipped)."""
    la, lb = len(a.coeffs), len(b.coeffs)
    if not la or not lb:
        return 0
    limit = la + lb - 1
    truncs = [t for t in (a.trunc, b.trunc) if t is not None]
    if truncs:
        limit = min(limit, min(truncs) + 1)
    n = min(la, limit)
    k = max(0, min(n, limit - lb))  # rows below k use all of b
    return k * lb + (n - k) * limit - (n - 1 + k) * (n - k) // 2


def _after_mul(tracer, args, kwargs, result, spent, note):
    tracer.counters["qpolys.intpoly_mul.coeff_products"] += note


def _gauss_observers(cached):
    def before(args, kwargs):
        return cached.cache_info().misses

    def after(tracer, args, kwargs, result, spent, misses_before):
        if cached.cache_info().misses > misses_before:
            tracer.counters["qpolys.gauss_binomial.misses"] += 1
            tracer.counters["qpolys.gauss_binomial.miss_s"] += spent

    return before, after


def _after_gf_shifted(tracer, args, kwargs, result, spent, note):
    trunc = kwargs.get("truncate_at", args[5] if len(args) > 5 else None)
    if trunc is not None:
        tracer.counters["qpolys.gf_shifted.truncated"] += 1
        if result.coefficient(trunc):
            tracer.counters["qpolys.gf_shifted.nonzero"] += 1


def _before_det(args, kwargs):
    matrix = args[0]
    return len(matrix) >= 7 and all(e.trunc is None for row in matrix for e in row)


def _after_det(tracer, args, kwargs, result, spent, large_untruncated):
    tracer.counters["qpolys.det.large_untruncated"] += int(large_untruncated)


# -- installation --------------------------------------------------------------------


def install(request_id: int) -> Tracer:
    from escalier import (barcode, bijections, cli, counting, monomials, oracle,
                          partitions, qpolys)

    tracer = Tracer(request_id)
    loaded = [m for name, m in sys.modules.items()
              if name == "escalier" or name.startswith("escalier.")]

    def function(module, name, **kw):
        original = getattr(module, name)
        short = module.__name__.rsplit(".", 1)[-1]
        wrapped = tracer.wrap(short, name, original, **kw)
        for m in loaded:
            for attr in [a for a, v in vars(m).items() if v is original]:
                setattr(m, attr, wrapped)

    def method(module, cls, name, **kw):
        raw = cls.__dict__[name]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        short = module.__name__.rsplit(".", 1)[-1]
        wrapped = tracer.wrap(short, f"{cls.__name__}.{name}", fn, **kw)
        setattr(cls, name, classmethod(wrapped) if is_classmethod else wrapped)

    function(cli, "run")
    for name in ("census", "census_2vars", "count_2vars", "max_h_2vars", "bar_lists_3vars",
                 "count_stable_3vars", "count_sstable_3vars", "count_stable_barlist",
                 "count_sstable_barlist", "a_vector_stable"):
        function(counting, name)
    function(counting, "a_vectors_strongly",
             after=_count_len("counting.a_vectors_strongly.vectors"))

    function(qpolys, "gf_strict")
    function(qpolys, "gf_shifted", after=_after_gf_shifted)
    function(qpolys, "det", before=_before_det, after=_after_det)
    before, after = _gauss_observers(qpolys.gauss_binomial)
    function(qpolys, "gauss_binomial", span=False, before=before, after=after)
    method(qpolys, qpolys.IntPoly, "__mul__", span=False,
           before=lambda args, kwargs: _mul_products(*args), after=_after_mul)
    method(qpolys, qpolys.IntPoly, "exact_div", span=False)

    for name in ("count_Q", "enumerate_distinct", "minimal_sum"):
        function(partitions, name)
    function(partitions, "enumerate_plane_partitions",
             after=_count_len("partitions.enumerate_plane_partitions.results"))

    function(bijections, "list_ideals", after=_count_len("bijections.list_ideals.items"))

    for name in ("decode", "length"):
        function(barcode, name)

    for name in ("minimal_generators", "is_stable", "is_strongly_stable"):
        function(monomials, name)
    method(monomials, monomials.MonomialIdeal, "of")
    method(monomials, monomials.OrderIdeal, "of")

    function(oracle, "count_by_definition", after=_add_result("oracle.passed"))
    function(oracle, "enumerate_order_ideals", after=_count_len("oracle.order_ideals"))
    return tracer
