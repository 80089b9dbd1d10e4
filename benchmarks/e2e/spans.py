"""Host-time spans recorded from outside the program.

The benchmark measures layers without editing ``src/``: :class:`Tracer`
replaces a public entry point (a method, classmethod or module function)
with a wrapper that records one span per call — type, start, end,
parent span and request id — into flat ``array('q')`` columns kept in
memory until the run ends. Callbacks handed *through* a public function
(an event scheduled on the ``EventScheduler``, the refresh-window
consumer) are wrapped the same way, so time spent in a callback is
charged to the layer that owns the callback, not to the scheduler that
happened to invoke it.

A layer's self time is the sum over its spans of (duration minus the
duration of direct children). Wrapper bookkeeping that runs between a
child's clock reads and its return is charged to the parent, so traced
self times carry the tracing overhead; ``bench.trace_overhead_ratio``
says how large that is.
"""

from __future__ import annotations

import gzip
import json
from array import array
from functools import partial
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Tracer:
    """Span recorder plus the patch bookkeeping that feeds it."""

    def __init__(self) -> None:
        #: Span-type table: index -> (layer, name).
        self.types: List[Tuple[str, str]] = []
        self._type_ids: Dict[Tuple[str, str], int] = {}
        self._callback_types: Dict[Tuple[str, str], int] = {}
        # One entry per span, column-wise.
        self.type_of = array("q")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("q")
        self.request = array("q")
        #: Per-span work units (pages in a batch call); 1 unless a
        #: ``weight_of`` hook says otherwise.
        self.weight = array("q")
        self._stack: List[int] = []
        #: Only calls made while active are recorded (set-up is not).
        self.active = False
        #: Request id inherited by spans that do not set their own.
        self.current_request = -1
        self._patched: List[Tuple[object, str, object]] = []

    # -- span types ----------------------------------------------------------

    def type_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        found = self._type_ids.get(key)
        if found is None:
            found = self._type_ids[key] = len(self.types)
            self.types.append(key)
        return found

    # -- wrapping -------------------------------------------------------------

    def _call(self, tid: int, weight: int, fn: Callable, *args, **kwargs):
        """Run ``fn`` under one span of type ``tid`` (the only place
        spans are recorded)."""
        stack = self._stack
        index = len(self.type_of)
        self.type_of.append(tid)
        self.parent.append(stack[-1] if stack else -1)
        self.request.append(self.current_request)
        self.weight.append(weight)
        self.end_ns.append(0)
        stack.append(index)
        self.start_ns.append(perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end_ns[index] = perf_counter_ns()
            stack.pop()

    def wrap(
        self,
        fn: Callable,
        layer: str,
        name: str,
        request_of: Optional[Callable[[tuple], Optional[int]]] = None,
        weight_of: Optional[Callable[[tuple], int]] = None,
    ) -> Callable:
        """A function that records one span around each ``fn`` call.

        ``request_of(args)`` may name the request the call belongs to
        (inherited by its children); ``weight_of(args)`` its work units.
        """
        tid = self.type_id(layer, name)
        call = self._call

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            weight = 1 if weight_of is None else weight_of(args)
            rid = None if request_of is None else request_of(args)
            if rid is None:
                return call(tid, weight, fn, *args, **kwargs)
            outer_request, self.current_request = self.current_request, rid
            try:
                return call(tid, weight, fn, *args, **kwargs)
            finally:
                self.current_request = outer_request

        return traced

    def callback_type(self, fn: Callable, layer_of: Callable[[str], str]) -> int:
        """Span type of a callback: the layer that owns its module, and
        its qualified name."""
        module = getattr(fn, "__module__", None) or ""
        name = getattr(fn, "__qualname__", None) or type(fn).__name__
        found = self._callback_types.get((module, name))
        if found is None:
            found = self._callback_types[(module, name)] = self.type_id(
                layer_of(module), name
            )
        return found

    def bind(self, tid: int, fn: Callable) -> Callable:
        """``fn`` under a span of type ``tid``. Cheaper to make than
        :meth:`wrap` (callbacks are wrapped once per scheduled event), but
        not usable as a method and always recording, so only for
        callbacks handed over while tracing is active."""
        return partial(self._call, tid, 1, fn)

    def patch(self, owner: object, attr: str, layer: str, **hooks) -> None:
        """Replace ``owner.attr`` with its traced wrapper (undone by
        :meth:`unpatch_all`). Handles plain functions, methods looked up
        on a class, and classmethods."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        owner_name = getattr(owner, "__name__", str(owner)).rsplit(".", 1)[-1]
        name = f"{owner_name}.{attr}"
        if isinstance(raw, classmethod):
            wrapped: object = classmethod(self.wrap(raw.__func__, layer, name, **hooks))
        else:
            wrapped = self.wrap(raw, layer, name, **hooks)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def patch_args(
        self, owner: type, attr: str, rewrite_args: Callable[[tuple], tuple]
    ) -> None:
        """Replace ``owner.attr`` with a pass-through that rewrites its
        positional arguments while tracing is active — to wrap a callback
        found among them — and records no span of its own (undone by
        :meth:`unpatch_all`; :meth:`patch` may be stacked on top)."""
        raw = owner.__dict__[attr]

        def passthrough(*args, **kwargs):
            if self.active:
                args = rewrite_args(args)
            return raw(*args, **kwargs)

        self._patched.append((owner, attr, raw))
        setattr(owner, attr, passthrough)

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Swap ``owner.attr`` for ``value`` (undone by :meth:`unpatch_all`)."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def unpatch_all(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- analysis -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.type_of)

    def durations_ns(self) -> array:
        return array("q", (e - s for s, e in zip(self.start_ns, self.end_ns)))

    def self_ns(self) -> array:
        """Per-span self time: duration minus direct children."""
        own = self.durations_ns()
        dur = array("q", own)
        for index, up in enumerate(self.parent):
            if up >= 0:
                own[up] -= dur[index]
        return own

    def self_s_by_layer(self) -> Dict[str, float]:
        totals: Dict[str, int] = {}
        layer_of_type = [layer for layer, _ in self.types]
        for tid, own in zip(self.type_of, self.self_ns()):
            layer = layer_of_type[tid]
            totals[layer] = totals.get(layer, 0) + own
        return {layer: ns / 1e9 for layer, ns in totals.items()}

    def root_s(self) -> float:
        """Total duration of spans that have no parent."""
        total = 0
        for up, start, end in zip(self.parent, self.start_ns, self.end_ns):
            if up < 0:
                total += end - start
        return total / 1e9

    def count_of_types(self, type_ids: set) -> int:
        return sum(1 for tid in self.type_of if tid in type_ids)

    def spans_named(self, *names: str) -> Iterator[int]:
        """Indices of spans whose type name is one of ``names``."""
        wanted = {
            tid for tid, (_, name) in enumerate(self.types) if name in names
        }
        return (i for i, tid in enumerate(self.type_of) if tid in wanted)

    def outermost(self, *names: str) -> List[int]:
        """Spans named ``names`` whose parent is not one of them too
        (a batch call that falls back to scalar calls counts once)."""
        wanted = {
            tid for tid, (_, name) in enumerate(self.types) if name in names
        }
        type_of, parent = self.type_of, self.parent
        return [
            i for i, tid in enumerate(type_of)
            if tid in wanted
            and (parent[i] < 0 or type_of[parent[i]] not in wanted)
        ]

    # -- export ---------------------------------------------------------------

    def write_chrome_trace(self, path: object) -> None:
        """Stream the spans as gzip'd Chrome trace-event JSON (Perfetto
        opens ``.json.gz`` directly). Timestamps are host microseconds
        from the first span."""
        origin = self.start_ns[0] if len(self) else 0
        # One json.dumps per span type, not per span: xfm_emulator records
        # millions of spans.
        heads = [
            f'{{"name":{json.dumps(name)},"cat":{json.dumps(layer)},'
            '"ph":"X","pid":1,"tid":1,'
            for layer, name in self.types
        ]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write('{"displayTimeUnit":"ms","traceEvents":[\n')
            separator = ""
            for i, tid in enumerate(self.type_of):
                start = self.start_ns[i]
                fh.write(
                    f'{separator}{heads[tid]}"ts":{(start - origin) / 1e3},'
                    f'"dur":{(self.end_ns[i] - start) / 1e3},"args":{{"id":{i},'
                    f'"parent":{self.parent[i]},"request":{self.request[i]}}}}}'
                )
                separator = ",\n"
            fh.write("\n]}\n")


def empty_span_cost_s(samples: int = 20000) -> float:
    """Calibrated host cost of one span around a no-op: what a traced
    run pays per span beyond the work it measures."""
    probe = Tracer()
    traced = probe.wrap(lambda: None, "bench", "noop")
    plain = lambda: None  # noqa: E731 - the untraced twin of the probe
    probe.active = True
    begin = perf_counter_ns()
    for _ in range(samples):
        traced()
    mid = perf_counter_ns()
    for _ in range(samples):
        plain()
    end = perf_counter_ns()
    return max(0, (mid - begin) - (end - mid)) / samples / 1e9
