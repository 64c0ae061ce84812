"""Wall-clock layer tracing installed at run time, from outside ``src/``.

A :class:`Tracer` replaces each layer's entry points (class methods,
properties and module functions of ``repro``) with wrappers that open a
span on entry and close it on exit. A span records its name, start, end
and parent. Each wrapper also counts its calls, so counts are taken at
the same boundaries as the times.

A layer's *self time* is the wall time of its spans minus the part that
child spans cover. Every wrapped span nests inside the benchmark's own
code, so the self times of all layers sum to the time spent inside
top-level spans, and ``wall - sum(self)`` is the ``unattributed`` bucket:
harness code and program code outside every wrapped entry point.

The simulator calls into the layers through scheduled callbacks, so the
``Simulator.schedule_at`` wrapper also wraps each callback in a span of
the layer that owns it (found from the callback's module). Without that,
every callback's time would land in ``netsim.engine``'s self time and
the engine would look like the whole campaign. The completion callbacks
a campaign hands to the client and echo layers are traced the same way.

Install the tracer before the objects under test are built: a bound
method captured at construction time keeps pointing at the original.
Forked children inherit the wrappers, but their spans stay in the child.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array
from pathlib import Path
from typing import Any, Callable

#: Layers in report order. Each ``<layer>.self_s`` metric is one entry.
LAYERS = (
    "netsim.engine",
    "netsim.transport",
    "netsim.latency",
    "netsim.addresses",
    "netsim.routing",
    "tor.crypto",
    "tor.cells",
    "tor.relay",
    "tor.client",
    "echo",
    "core",
    "core.shard",
    "core.planner",
    "core.dataset",
    "obs",
    "obs.health",
    "serve.index",
    "serve.server",
    "serve.telemetry",
)

#: Module prefix -> owning layer, for scheduled callbacks. The longest
#: matching prefix wins; callbacks from unlisted modules stay unwrapped
#: and their time counts toward the engine.
MODULE_LAYERS = {
    "repro.netsim.engine": "netsim.engine",
    "repro.netsim.transport": "netsim.transport",
    "repro.netsim.latency": "netsim.latency",
    "repro.netsim.addresses": "netsim.addresses",
    "repro.netsim.routing": "netsim.routing",
    "repro.tor.crypto": "tor.crypto",
    "repro.tor.cells": "tor.cells",
    "repro.tor.relay": "tor.relay",
    "repro.tor.client": "tor.client",
    "repro.echo": "echo",
    "repro.core.shard": "core.shard",
    "repro.core.planner": "core.planner",
    "repro.core.dataset": "core.dataset",
    "repro.core": "core",
    "repro.obs.health": "obs.health",
    "repro.obs": "obs",
    "repro.serve.index": "serve.index",
    "repro.serve.server": "serve.server",
    "repro.serve.telemetry": "serve.telemetry",
}

#: Entry points: (layer, module, attribute path, counter name or None).
#: ``Class.method`` paths patch the class; bare names patch the module
#: function in every loaded ``repro`` module that imported it.
ENTRY_POINTS: tuple[tuple[str, str, str, str | None], ...] = (
    ("netsim.engine", "repro.netsim.engine", "Simulator.run", None),
    ("netsim.engine", "repro.netsim.engine", "Simulator.schedule_at",
     "netsim.engine.scheduled"),
    ("netsim.transport", "repro.netsim.transport", "NetworkFabric.send",
     "netsim.transport.packets"),
    ("netsim.transport", "repro.netsim.transport", "StreamConnection.send",
     "netsim.transport.packets"),
    ("netsim.latency", "repro.netsim.latency",
     "LatencyEngine.sample_one_way_ms", "netsim.latency.samples"),
    ("netsim.latency", "repro.netsim.latency",
     "LatencyEngine.base_one_way_ms", "netsim.latency.base_calls"),
    ("netsim.addresses", "repro.netsim.topology", "Host.prefix24",
     "netsim.addresses.calls"),
    ("netsim.addresses", "repro.netsim.addresses", "parse_ipv4",
     "netsim.addresses.calls"),
    ("netsim.routing", "repro.netsim.routing", "Router.path", None),
    ("netsim.routing", "repro.netsim.routing", "Router.path_latency_ms",
     "netsim.routing.latency_calls"),
    ("tor.crypto", "repro.tor.crypto", "LayerCipher.process",
     "tor.crypto.cells"),
    ("tor.crypto", "repro.tor.crypto", "RunningDigest.update", None),
    ("tor.crypto", "repro.tor.crypto", "RunningDigest.commit", None),
    ("tor.crypto", "repro.tor.crypto", "ClientHandshake.complete",
     "tor.crypto.handshakes"),
    ("tor.crypto", "repro.tor.crypto", "ServerHandshake.respond",
     "tor.crypto.handshakes"),
    ("tor.cells", "repro.tor.cells", "RelayCellBody.pack", "tor.cells.packs"),
    ("tor.cells", "repro.tor.cells", "RelayCellBody.unpack", None),
    ("tor.relay", "repro.tor.relay", "Relay._cell_arrived", None),
    ("tor.relay", "repro.tor.relay", "Relay._process_cell", "tor.relay.cells"),
    ("tor.client", "repro.tor.client", "OnionProxy.create_circuit",
     "tor.client.circuits"),
    ("tor.client", "repro.tor.client", "OnionProxy.open_stream", None),
    ("tor.client", "repro.tor.client", "OnionProxy.close_circuit", None),
    ("tor.client", "repro.tor.client", "OnionProxy._fail_circuit",
     "tor.client.circuits_failed"),
    ("echo", "repro.echo.client", "EchoClient.probe", None),
    ("echo", "repro.echo.client", "EchoClient.probe_async", "echo.runs"),
    ("core", "repro.core.ting", "TingMeasurer.measure_pair", None),
    ("core", "repro.core.ting", "TingMeasurer.measure_leg", None),
    ("core", "repro.core.ting", "TingMeasurer.measure_pair_circuit", None),
    ("core", "repro.core.parallel", "ParallelCampaign.run", None),
    ("core", "repro.core.parallel", "ParallelCampaign.run_pairs", None),
    ("core", "repro.core.parallel", "TaskIsolation.begin",
     "core.isolated_tasks"),
    ("core.shard", "repro.core.shard", "ShardedCampaign.run", None),
    ("core.planner", "repro.core.planner", "CampaignPlanner.plan", None),
    ("core.dataset", "repro.core.dataset", "CampaignDataset.absorb", None),
    ("core.dataset", "repro.core.dataset", "CampaignDataset.save", None),
    ("core.dataset", "repro.core.dataset", "CampaignDataset.load", None),
    ("obs", "repro.obs.registry", "MetricsRegistry.inc", None),
    ("obs", "repro.obs.registry", "MetricsRegistry.set_gauge", None),
    ("obs", "repro.obs.registry", "MetricsRegistry.max_gauge", None),
    ("obs", "repro.obs.registry", "MetricsRegistry.observe", None),
    ("obs", "repro.obs.trace", "TraceLog.record", None),
    ("obs", "repro.obs.spans", "SpanTracer.span", "obs.spans"),
    ("obs", "repro.obs.spans", "SpanTracer.begin", "obs.spans"),
    ("obs", "repro.obs.spans", "SpanHandle.end", None),
    ("obs", "repro.obs.events", "EventBus.emit", None),
    ("obs", "repro.core.dataset", "ProvenanceLog.add", "obs.provenance_rows"),
    ("obs", "repro.core.dataset", "ProvenanceLog.add_leg",
     "obs.provenance_rows"),
    ("obs.health", "repro.obs.health", "health_report", None),
    ("serve.index", "repro.serve.index", "MatrixIndex.build", None),
    ("serve.index", "repro.serve.index", "MatrixIndex.point",
     "serve.index.point"),
    ("serve.index", "repro.serve.index", "MatrixIndex.k_nearest",
     "serve.index.knn"),
    ("serve.index", "repro.serve.index", "MatrixIndex.percentile",
     "serve.index.percentile"),
    ("serve.index", "repro.serve.index", "MatrixIndex.path_rtt",
     "serve.index.path"),
    ("serve.index", "repro.serve.index", "MatrixIndex.best_via",
     "serve.index.via"),
    ("serve.server", "repro.serve.server", "QueryServer.query",
     "serve.server.queries"),
    ("serve.server", "repro.serve.server", "QueryServer.batch", None),
    ("serve.telemetry", "repro.serve.telemetry", "ServeTelemetry.record",
     "serve.telemetry.records"),
)

#: Entry points whose callable arguments are completion callbacks.
CALLBACK_ENTRY_POINTS = frozenset(
    {"OnionProxy.create_circuit", "OnionProxy.open_stream", "EchoClient.probe_async"}
)

#: Span records kept in memory (the first ones by start order, so every
#: kept span's parent is kept too). Times and counts cover every span.
SPAN_CAP = 250_000


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.layer_ids = {layer: i for i, layer in enumerate(LAYERS)}
        self.self_s = [0.0] * len(LAYERS)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.calls: list[int] = []
        #: Total wall of every span of each name, children included.
        self.inclusive: list[float] = []
        #: Counters keyed by name; several entry points may share one.
        self.counters: dict[str, int] = {}
        self._stack: list[list[Any]] = []
        self._next_span = 0
        self._span_name = array("i", [0]) * SPAN_CAP
        self._span_parent = array("i", [0]) * SPAN_CAP
        self._span_start = array("d", [0.0]) * SPAN_CAP
        self._span_end = array("d", [0.0]) * SPAN_CAP
        self._patches: list[tuple[Any, str, Any]] = []
        self._module_layer: dict[str | None, int | None] = {}
        self._callback_names: dict[int, int] = {}

    # -- spans ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.inclusive.append(0.0)
        return nid

    def _span(self, fn: Callable, nid: int, layer: int, args, kwargs) -> Any:
        stack = self._stack
        sid = self._next_span
        self._next_span = sid + 1
        parent = stack[-1][1] if stack else -1
        frame = [0.0, sid]
        stack.append(frame)
        clock = self.clock
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = clock()
            stack.pop()
            d = t1 - t0
            self.self_s[layer] += d - frame[0]
            if stack:
                stack[-1][0] += d
            self.calls[nid] += 1
            self.inclusive[nid] += d
            if sid < SPAN_CAP:
                self._span_name[sid] = nid
                self._span_parent[sid] = parent
                self._span_start[sid] = t0
                self._span_end[sid] = t1

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn`` as a span named ``name`` of ``layer``."""
        nid = self.name_id(name)
        lid = self.layer_ids[layer]
        span = self._span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return span(fn, nid, lid, args, kwargs)

        return traced

    # -- scheduled callbacks -------------------------------------------

    def _callback_layer(self, callback: Callable) -> int | None:
        fn = getattr(callback, "__func__", None) or getattr(
            callback, "func", callback
        )
        module = getattr(fn, "__module__", None)
        try:
            return self._module_layer[module]
        except KeyError:
            pass
        layer = None
        best = -1
        for prefix, owner in MODULE_LAYERS.items():
            if module and (module == prefix or module.startswith(prefix + ".")):
                if len(prefix) > best:
                    best, layer = len(prefix), self.layer_ids[owner]
        self._module_layer[module] = layer
        if layer is not None:
            self._callback_names[layer] = self.name_id(
                f"{LAYERS[layer]}.callback"
            )
        return layer

    def _traced_callback(self, callback: Callable) -> Callable:
        """``callback`` in a span of the layer that owns it, if any."""
        layer = self._callback_layer(callback)
        if layer is None:
            return callback
        nid = self._callback_names[layer]
        span = self._span

        def traced_callback(*args):
            return span(callback, nid, layer, args, {})

        return traced_callback

    def _schedule_hook(self, original: Callable) -> Callable:
        """``Simulator.schedule_at`` that traces the scheduled callback."""
        traced = self._traced_callback

        def schedule_at(sim, when, callback, *args):
            return original(sim, when, traced(callback), *args)

        return schedule_at

    def _callback_args_hook(self, original: Callable) -> Callable:
        """An entry point that traces the completion callbacks it is
        handed, so work a campaign does on completion counts as its own
        layer's, not as the layer that happens to call back."""
        traced = self._traced_callback

        def with_traced_callbacks(owner, *args, **kwargs):
            args = [traced(a) if _is_function(a) else a for a in args]
            kwargs = {
                k: traced(v) if _is_function(v) else v for k, v in kwargs.items()
            }
            return original(owner, *args, **kwargs)

        return with_traced_callbacks

    # -- counters ------------------------------------------------------

    def _counted(self, fn: Callable, counter: str, measure=None) -> Callable:
        counters = self.counters
        counters.setdefault(counter, 0)
        if measure is None:

            def counted(*args, **kwargs):
                counters[counter] += 1
                return fn(*args, **kwargs)

        else:
            extra, size = measure
            counters.setdefault(extra, 0)

            def counted(*args, **kwargs):
                counters[counter] += 1
                counters[extra] += size(args)
                return fn(*args, **kwargs)

        return counted

    # -- installation --------------------------------------------------

    def install(self) -> "Tracer":
        """Patch every entry point in :data:`ENTRY_POINTS`."""
        for layer, module_name, path, counter in ENTRY_POINTS:
            module = sys.modules.get(module_name) or __import__(
                module_name, fromlist=["_"]
            )
            if "." in path:
                owner_name, attr = path.split(".")
                self._patch_class(
                    getattr(module, owner_name), attr, layer, path, counter
                )
            else:
                self._patch_function(module, path, layer, counter)
        return self

    def _instrument(self, fn: Callable, layer: str, name: str, counter):
        if name == "Simulator.schedule_at":
            fn = self._schedule_hook(fn)
        elif name in CALLBACK_ENTRY_POINTS:
            fn = self._callback_args_hook(fn)
        traced = self.wrap(fn, f"{layer}:{name}", layer)
        if counter is None:
            return traced
        measure = None
        if name == "LayerCipher.process":
            measure = ("tor.crypto.bytes", lambda args: len(args[1]))
        return self._counted(traced, counter, measure)

    def _patch_class(self, cls, attr: str, layer: str, name: str, counter):
        raw = cls.__dict__[attr]
        if isinstance(raw, property):
            new = property(self._instrument(raw.fget, layer, name, counter))
        elif isinstance(raw, classmethod):
            new = classmethod(
                self._instrument(raw.__func__, layer, name, counter)
            )
        elif isinstance(raw, staticmethod):
            new = staticmethod(
                self._instrument(raw.__func__, layer, name, counter)
            )
        else:
            new = self._instrument(raw, layer, name, counter)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, new)

    def _patch_function(self, module, attr: str, layer: str, counter) -> None:
        original = getattr(module, attr)
        new = self._instrument(original, layer, attr, counter)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            if getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, new)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def calls_of(self, name: str) -> int:
        """Calls recorded by the span ``name`` (``layer:Class.attr``)."""
        nid = self._name_ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def inclusive_s(self, name: str) -> float:
        """Total wall of the spans named ``name``, children included."""
        nid = self._name_ids.get(name)
        return 0.0 if nid is None else self.inclusive[nid]

    def layer_self_s(self) -> dict[str, float]:
        return dict(zip(LAYERS, self.self_s))

    @property
    def spans_total(self) -> int:
        return self._next_span

    @property
    def spans_kept(self) -> int:
        return min(self._next_span, SPAN_CAP)

    def write_spans(self, path: Path) -> Path:
        """Write the kept spans as an ``.npz`` (name ids index ``names``)."""
        import numpy as np

        kept = self.spans_kept
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._span_name, dtype=np.int32)[:kept],
            parent=np.frombuffer(self._span_parent, dtype=np.int32)[:kept],
            start_s=np.frombuffer(self._span_start, dtype=np.float64)[:kept],
            end_s=np.frombuffer(self._span_end, dtype=np.float64)[:kept],
            spans_total=np.array(self._next_span),
        )
        return path


def _is_function(value: Any) -> bool:
    return isinstance(value, (types.FunctionType, types.MethodType))
