"""Spans recorded from outside the program, around its public entry points.

:func:`install` replaces a fixed set of public functions and methods with
timing wrappers.  While :attr:`Recorder.enabled` is on, each call records
one span ``(id, parent id, name, start, end)`` in memory; the parent is the
innermost wrapped call still open on the same thread, so spans nest into
one tree per client call (or per served request on a worker thread).
Nothing inside ``repro`` is edited: module-level functions are rebound in
every ``repro`` module that imported them by name, methods on their class.

A layer's *self time* is its spans' durations minus the part covered by
their child spans; :func:`summarize` groups those by layer.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

#: span name → layer; the layer names are the per-layer metric prefixes
LAYER_OF = {
    "client": "client",
    "codec.xml_encode": "codec",
    "codec.xml_decode": "codec",
    "codec.serialize": "codec",
    "codec.deserialize": "codec",
    "transport": "transport",
    "binding": "binding",
    "kernel": "kernel",
    "security.check_read": "security",
    "resolver.get_service_bindings": "resolver",
    "resolver.resolve_bindings": "resolver",
    "query.execute_adhoc_query": "query",
    "query.get_registry_object": "query",
    "lifecycle.submit": "lifecycle",
    "lifecycle.update": "lifecycle",
    "lifecycle.remove": "lifecycle",
    "monitor.sweep": "monitor",
}

#: layers that sum to a client call's round trip (trace.coverage)
CALL_LAYERS = (
    "client", "codec", "transport", "binding", "kernel",
    "security", "resolver", "query", "lifecycle",
)

#: spans under one of these run on the registry side of the wire
SERVER_SIDE = frozenset({"transport", "binding", "kernel"})


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    #: transport spans: response size in characters (wire mode);
    #: kernel spans: the serving queue wait the worker measured, seconds
    note: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span sink shared by every wrapper."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, func, args, kwargs, note=None):
        if not self.enabled:
            return func(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        result = None
        started = time.perf_counter()
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            ended = time.perf_counter()
            stack.pop()
            value = note(kwargs, result) if note is not None else 0.0
            self.spans.append(Span(span_id, parent, name, started, ended, value))


def _response_chars(_kwargs, result) -> float:
    return float(len(result)) if isinstance(result, str) else 0.0


def _queue_wait(kwargs, _result) -> float:
    return float((kwargs.get("tags") or {}).get("queue_wait_s", 0.0))


def _wrap(recorder: Recorder, name: str, func, note=None):
    def traced(*args, **kwargs):
        return recorder.call(name, func, args, kwargs, note)

    traced.__wrapped__ = func
    traced.__name__ = getattr(func, "__name__", name)
    return traced


def _rebind_function(module_name: str, attr: str, traced) -> None:
    """Point every loaded ``repro`` module's reference at *traced*."""
    original = getattr(sys.modules[module_name], attr)
    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and getattr(module, attr, None) is original:
            setattr(module, attr, traced)


def install(recorder: Recorder) -> None:
    """Wrap the public entry points of every measured layer.

    Must run before the fixture is built: handlers that import a codec
    function when they are registered keep the reference they got then.
    """
    import repro.soap.serializer as serializer
    import repro.soap.xml_binding as xml_binding
    from repro.core.monitor import TimeHits
    from repro.persistence.dao import ServiceDAO
    from repro.registry.kernel import RegistryKernel
    from repro.registry.lifecycle import LifeCycleManager
    from repro.registry.querymgr import QueryManager
    from repro.registry.server import RegistryServer
    from repro.soap.binding import SoapRegistryBinding
    from repro.soap.transport import SimTransport
    import repro.client.jaxr  # noqa: F401 - imported so its codec references are rebound

    for module, attr, name in (
        (serializer, "serialize", "codec.serialize"),
        (serializer, "deserialize", "codec.deserialize"),
        (xml_binding, "envelope_to_xml", "codec.xml_encode"),
        (xml_binding, "envelope_from_xml", "codec.xml_decode"),
    ):
        _rebind_function(module.__name__, attr, _wrap(recorder, name, getattr(module, attr)))
    for cls, attr, name, note in (
        (SimTransport, "request", "transport", _response_chars),
        (SoapRegistryBinding, "handle", "binding", None),
        (RegistryKernel, "execute", "kernel", _queue_wait),
        (RegistryServer, "check_read", "security.check_read", None),
        (QueryManager, "get_service_bindings", "resolver.get_service_bindings", None),
        (ServiceDAO, "resolve_bindings", "resolver.resolve_bindings", None),
        (QueryManager, "execute_adhoc_query", "query.execute_adhoc_query", None),
        (QueryManager, "get_registry_object", "query.get_registry_object", None),
        (LifeCycleManager, "submit_objects", "lifecycle.submit", None),
        (LifeCycleManager, "update_objects", "lifecycle.update", None),
        (LifeCycleManager, "remove_objects", "lifecycle.remove", None),
        (TimeHits, "collect_once", "monitor.sweep", None),
    ):
        setattr(cls, attr, _wrap(recorder, name, getattr(cls, attr), note))


@dataclass
class TraceSummary:
    """Aggregates over one traced phase."""

    #: layer → total self seconds inside the counted trees
    layer_self_s: dict[str, float]
    #: span name → spans of that name inside the counted trees
    tree_counts: dict[str, int]
    #: span name → (count, total inclusive seconds), over every tree
    inclusive: dict[str, tuple[int, float]]
    #: codec self seconds by side and direction ("client_encode", ...)
    codec_s: dict[str, float]
    response_chars: float
    wire_responses: int
    #: counted trees (client calls, or served requests)
    roots: int
    #: serving queue waits noted on root kernel spans, seconds
    queue_waits: list[float]

    def mean_inclusive_s(self, name: str) -> float:
        count, total = self.inclusive.get(name, (0, 0.0))
        return total / count if count else 0.0


def summarize(spans: list[Span], root_name: str = "client") -> TraceSummary:
    """Self times per layer over the trees rooted at *root_name* spans.

    Client calls root at ``client``; requests a serving worker ran root at
    ``kernel``; monitoring sweeps root at ``monitor.sweep``.
    """
    by_id = {span.id: span for span in spans}
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    root_cache: dict[int, Span] = {}

    def root_of(span: Span) -> Span:
        path = []
        node = span
        while True:
            cached = root_cache.get(node.id)
            if cached is not None:
                root = cached
                break
            path.append(node.id)
            parent = by_id.get(node.parent) if node.parent is not None else None
            if parent is None:
                root = node
                break
            node = parent
        for span_id in path:
            root_cache[span_id] = root
        return root

    def server_side(span: Span) -> bool:
        node = by_id.get(span.parent) if span.parent is not None else None
        while node is not None:
            if node.name in SERVER_SIDE:
                return True
            node = by_id.get(node.parent) if node.parent is not None else None
        return False

    layer_self: dict[str, float] = defaultdict(float)
    tree_counts: dict[str, int] = defaultdict(int)
    inclusive: dict[str, list] = defaultdict(lambda: [0, 0.0])
    codec: dict[str, float] = defaultdict(float)
    response_chars = 0.0
    wire_responses = roots = 0
    queue_waits: list[float] = []
    for span in spans:
        entry = inclusive[span.name]
        entry[0] += 1
        entry[1] += span.duration
        root = root_of(span)
        if root.name != root_name:
            continue
        if span is root:
            roots += 1
            if span.name == "kernel":
                queue_waits.append(span.note)
        tree_counts[span.name] += 1
        self_s = span.duration - child_time.get(span.id, 0.0)
        layer_self[LAYER_OF[span.name]] += self_s
        if span.name.startswith("codec."):
            side = "server" if server_side(span) else "client"
            direction = "encode" if span.name in ("codec.xml_encode", "codec.serialize") else "decode"
            codec[f"{side}_{direction}"] += self_s
        if span.name == "transport" and span.note:
            response_chars += span.note
            wire_responses += 1
    return TraceSummary(
        layer_self_s=dict(layer_self),
        tree_counts=dict(tree_counts),
        inclusive={name: (n, total) for name, (n, total) in inclusive.items()},
        codec_s=dict(codec),
        response_chars=response_chars,
        wire_responses=wire_responses,
        roots=roots,
        queue_waits=queue_waits,
    )
