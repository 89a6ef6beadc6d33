"""Span tracer that times, from outside, the calls into greenquadrics modules.

`Tracer.install()` replaces every public function of each layer module,
and every public method of the classes those modules define, with a
wrapper.  The package itself is not edited: the wrappers are swapped into
the module namespaces (and the `checks.SUITES` table) that hold references
to the originals, and `uninstall()` puts the originals back.

A call from one layer into another opens a span (name, start, end,
parent).  A call inside the same layer is only counted and timed, so a
layer's self time is the time spent in its own code and in code it calls
that is not a layer, such as `fractions`.  Spans stay in memory, up to
MAX_SPANS, and are written out after the run; the aggregates count every
call.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from contextlib import contextmanager

from spec import LAYERS

# Dunder methods that are public API (operators), traced like named methods.
_OPERATORS = frozenset(
    "__matmul__ __add__ __sub__ __rsub__ __mul__ __rmul__ __truediv__ "
    "__rtruediv__ __neg__ __eq__ __lt__ __le__ __gt__ __ge__ __bool__".split()
)

_ROOT = -1
_KEY = 1 << 16  # edge key = caller id * _KEY + callee id
MAX_SPANS = 50_000  # spans kept for the span file; aggregates count every call


def _public_functions(module):
    """(owner, attribute name, function) for every traced callable."""
    found = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((module, name, obj))
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr not in _OPERATORS:
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    found.append((obj, attr, member))
    return found


class Tracer:
    def __init__(self):
        self.layers = list(LAYERS)
        self.fn_names: list[str] = []
        self.fn_calls: list[int] = []
        self.fn_time: list[float] = []  # inclusive time of every call
        self.edges: dict[int, int] = {}
        self.layer_spans = [0] * len(self.layers)
        self.layer_self = [0.0] * len(self.layers)
        self.max_bits = 0
        self.dropped = 0
        self.span_fn = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        # frame: (layer, function id, span index, child-time cell of the span)
        self._stack = [(_ROOT, _ROOT, -1, [0.0])]
        self._on = [True]
        self._restore: list[tuple] = []
        self._mat2 = None

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(path) for layer, path in LAYERS.items()}
        self._mat2 = modules["mat2"].Mat2
        replaced = {}
        for layer_id, (layer, module) in enumerate(modules.items()):
            for owner, attr, fn in _public_functions(module):
                fid = len(self.fn_names)
                self.fn_names.append(f"{layer}.{fn.__qualname__}")
                self.fn_calls.append(0)
                self.fn_time.append(0.0)
                wrapper = self._wrap(fn, layer_id, fid)
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    wrapper = classmethod(wrapper)
                elif isinstance(raw, staticmethod):
                    wrapper = staticmethod(wrapper)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapper)
                if owner is module:
                    replaced[id(fn)] = (fn, wrapper)
        # rebind the copies that `from x import f` left in the other modules
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, name, obj))
                    setattr(module, name, hit[1])
        for fns in modules["checks"].SUITES.values():
            for i, fn in enumerate(fns):
                hit = replaced.get(id(fn))
                if hit is not None and hit[0] is fn:
                    self._restore.append((fns, i, fn))
                    fns[i] = hit[1]

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            if isinstance(owner, list):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)
        self._restore.clear()

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without counting their calls."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    def _wrap(self, fn, layer, fid):
        stack, on = self._stack, self._on
        fn_calls, fn_time, edges = self.fn_calls, self.fn_time, self.edges
        layer_spans, layer_self = self.layer_spans, self.layer_self
        span_fn, span_parent = self.span_fn, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            top = stack[-1]
            fn_calls[fid] += 1
            key = top[1] * _KEY + fid
            edges[key] = edges.get(key, 0) + 1
            if top[0] == layer:
                stack.append((layer, fid, top[2], top[3]))
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    fn_time[fid] += perf() - t0
                    stack.pop()
            cell = [0.0]
            t0 = perf()
            idx = len(span_fn)
            if idx < MAX_SPANS and (top[2] >= 0 or top[0] == _ROOT):
                span_fn.append(fid)
                span_parent.append(top[2])
                span_start.append(t0)
                span_end.append(0.0)
            else:
                tracer.dropped += 1
                idx = -1
            stack.append((layer, fid, idx, cell))
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                layer_self[layer] += dur - cell[0]
                layer_spans[layer] += 1
                fn_time[fid] += dur
                top[3][0] += dur
                if idx >= 0:
                    span_end[idx] = t1
            if type(result) is tracer._mat2:
                for v in result.entries:
                    bits = max(v.numerator.bit_length(), v.denominator.bit_length())
                    if bits > tracer.max_bits:
                        tracer.max_bits = bits
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    # --- results -----------------------------------------------------------

    def spans(self) -> list[tuple]:
        """Kept spans as (name, start, end, parent index)."""
        names = self.fn_names
        return [
            (names[f], s, e, p)
            for f, s, e, p in zip(self.span_fn, self.span_start, self.span_end, self.span_parent)
        ]

    def summary(self) -> dict:
        """Aggregates keyed by name, the form `merge` and the report read."""
        names = self.fn_names

        def name(fid):
            return "root" if fid == _ROOT else names[fid]

        return {
            "layer_spans": dict(zip(self.layers, self.layer_spans)),
            "layer_self": dict(zip(self.layers, self.layer_self)),
            "fn_calls": {names[i]: n for i, n in enumerate(self.fn_calls) if n},
            "fn_time": {names[i]: t for i, t in enumerate(self.fn_time) if t},
            "edges": {f"{name(k // _KEY)}>{names[k % _KEY]}": n for k, n in self.edges.items()},
            "max_bits": self.max_bits,
            "spans_kept": len(self.span_fn),
            "spans_dropped": self.dropped,
        }


def merge(summaries) -> dict:
    """Sum the summaries of several traced processes."""
    fields = ("layer_spans", "layer_self", "fn_calls", "fn_time", "edges")
    total = {field: {} for field in fields}
    total.update(max_bits=0, spans_kept=0, spans_dropped=0)
    for s in summaries:
        for field in fields:
            acc = total[field]
            for k, v in s[field].items():
                acc[k] = acc.get(k, 0) + v
        total["max_bits"] = max(total["max_bits"], s["max_bits"])
        total["spans_kept"] += s["spans_kept"]
        total["spans_dropped"] += s["spans_dropped"]
    return total
