"""Outside-in span tracer: per-layer host time without touching ``src/``.

The benchmark measures layers from its own files: :class:`Tracer.patch`
replaces the public callables named in :data:`HOOKS` with timing
wrappers, the traced ``run_*`` call executes, and :meth:`Tracer.unpatch`
puts every original back.  One span stack (the simulator is single
threaded) yields, per layer and per callable, the call count, the
inclusive time and the **self time** — a span's duration minus the part
its child spans cover — so the self times of all spans telescope to the
root span's duration exactly.

Event dispatches are spans too: the ``schedule*`` wrappers wrap each
scheduled callback so that the dispatch's *cause* is the span that
scheduled it and its ``trace_id`` is inherited across the event loop.  A
new trace starts whenever the driver (the ``experiments`` layer) offers
traffic, so one packet's — or one burst's — inject → arrive → process →
send → deliver chain shares one id.  Aggregates are kept for every span;
full span records for one trace in ``sample_every`` (and one span in
``sample_every`` of trace 0, the driver's own).

A hook whose name no longer resolves is counted in ``missing`` and
skipped, never an error: changes that claim a gain may not edit
``bench/``, so the tracer has to survive the refactors they make.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["HOOKS", "LAYERS", "Tracer", "layer_of_module", "rebind"]

#: Layer names, in report order (the repo's modules, outside in).
LAYERS = (
    "experiments", "workloads", "net.events", "net.links", "net.simnet",
    "flowspace", "switch.pipeline", "switch.cache", "core.authority",
    "core.cachegen", "core.controller", "core.shards", "openflow.channel",
    "obs", "baselines",
)

#: Which layer owns a module, longest prefix first.  Used for event
#: dispatches whose callback is not itself a hooked public name (private
#: timers in ``core.shards`` and ``openflow.channel``, feeder closures in
#: ``experiments``) so they are attributed without being named.
_MODULE_LAYERS = (
    ("repro.net.events", "net.events"),
    ("repro.net.links", "net.links"),
    ("repro.net", "net.simnet"),
    ("repro.flowspace", "flowspace"),
    ("repro.switch.cache", "switch.cache"),
    ("repro.switch.switch", "core.authority"),
    ("repro.switch", "switch.pipeline"),
    ("repro.core.authority", "core.authority"),
    ("repro.core.cachegen", "core.cachegen"),
    ("repro.core.shards", "core.shards"),
    ("repro.core", "core.controller"),
    ("repro.openflow", "openflow.channel"),
    ("repro.obs", "obs"),
    ("repro.baselines", "baselines"),
    ("repro.workloads", "workloads"),
    ("repro.parallel.cache", "workloads"),
)


def layer_of_module(module: Optional[str]) -> str:
    """The layer owning ``module``; driver code and strangers are
    ``experiments`` (the root layer, reported as unattributed)."""
    if module:
        for prefix, layer in _MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "experiments"


# -- probes: counts taken at the same boundaries as the spans ----------------
# A probe runs after a successful call as probe(counters, args, result);
# ``args`` includes ``self`` for methods.

def _count_batch_arg(key: str, index: int):
    def probe(counters, args, result):
        counters[key] = counters.get(key, 0) + len(args[index])
    return probe


def _count_result_len(key: str):
    def probe(counters, args, result):
        counters[key] = counters.get(key, 0) + len(result)
    return probe


def _count_truthy(key: str):
    def probe(counters, args, result):
        if result:
            counters[key] = counters.get(key, 0) + 1
    return probe


def _delay_of_packet(counters, args, result):
    network, packet = args[0], args[1]
    delay = network.scheduler.now - (packet.created_at or 0.0)
    counters.setdefault("delays", []).append((delay, 1))


def _delay_of_batch(counters, args, result):
    network, batch = args[0], args[1]
    delay = network.scheduler.now - (batch.created_at or 0.0)
    counters.setdefault("delays", []).append((delay, len(batch)))


def _block_records(counters, args, result):
    counters["obs_batch_records"] = (
        counters.get("obs_batch_records", 0) + len(args[1].batch)
    )


_EVENTS = "repro.net.events:EventScheduler."
_LINK = "repro.net.links:Link."
_NET = "repro.net.simnet:SimNetwork."
_TABLE = "repro.flowspace.table:RuleTable."
_MATCHER = "repro.flowspace.vectormatch:VectorMatcher."
_PIPE = "repro.switch.pipeline:DifanePipeline."
_TCAM = "repro.switch.tcam:Tcam."
_CACHE = "repro.switch.cache:CacheManager."
_DPS = "repro.switch.switch:DataPlaneSwitch."
_DIFANE = "repro.core.authority:DifaneSwitch."
_CGEN = "repro.core.cachegen:"
_CTRL = "repro.core.controller:DifaneController."
_SHARDS = "repro.core.shards:"
_CHANNEL = "repro.openflow.channel:ControlChannel."

#: ``(layer, "module:dotted.name", probe)`` — the benchmark-facing API.
#: ``schedule*`` hooks additionally wrap the callback they are handed.
HOOKS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("workloads", "repro.workloads.streaming:epoch_bursts", None),
    ("workloads", "repro.workloads.streaming:streaming_policy", None),
    ("workloads", "repro.workloads.streaming:streaming_topology", None),
    ("workloads", "repro.workloads.traffic:zipf_host_pair_packets", None),
    ("workloads", "repro.workloads.policies:routing_policy_for_topology", None),
    ("workloads", "repro.parallel.cache:classbench_ruleset", None),
    ("workloads", "repro.parallel.cache:zipf_packet_sequence", None),
    ("net.events", _EVENTS + "run", None),
    ("net.events", _EVENTS + "schedule", None),
    ("net.events", _EVENTS + "schedule_at", None),
    ("net.events", _EVENTS + "schedule_batch", None),
    ("net.links", _LINK + "send", None),
    ("net.links", _LINK + "send_batch", _count_batch_arg("link_batch_pkts", 1)),
    ("net.simnet", _NET + "inject_from_host", None),
    ("net.simnet", _NET + "inject_at_switch", None),
    ("net.simnet", _NET + "inject_burst_at_switch", None),
    ("net.simnet", _NET + "inject_batch_at_switch", None),
    ("net.simnet", _NET + "transmit", None),
    ("net.simnet", _NET + "transmit_batch", None),
    ("net.simnet", _NET + "forward_toward", None),
    ("net.simnet", _NET + "forward_batch_toward", None),
    ("net.simnet", _NET + "send_control", None),
    ("net.simnet", _NET + "record_delivery", _delay_of_packet),
    ("net.simnet", _NET + "record_delivery_batch", _delay_of_batch),
    ("net.simnet", _NET + "record_drop", None),
    ("net.simnet", _NET + "record_drop_batch",
     _count_batch_arg("drop_batch_pkts", 1)),
    ("flowspace", _TABLE + "lookup", None),
    ("flowspace", _TABLE + "lookup_bits", None),
    ("flowspace", _TABLE + "batch_lookup", _count_result_len("batch_lookups")),
    ("flowspace", _TABLE + "add", None),
    ("flowspace", _TABLE + "remove", None),
    ("flowspace", _TABLE + "remove_if", None),
    ("flowspace", _TABLE + "clear", None),
    ("flowspace", _MATCHER + "__init__", None),
    ("flowspace", _MATCHER + "match", _count_result_len("batch_lookups")),
    ("switch.pipeline", _PIPE + "lookup", None),
    ("switch.pipeline", _PIPE + "lookup_batch", None),
    ("switch.pipeline", _PIPE + "classify_batch", None),
    ("switch.pipeline", _PIPE + "install", None),
    ("switch.pipeline", _TCAM + "lookup", None),
    ("switch.pipeline", _TCAM + "lookup_batch", None),
    ("switch.pipeline", _TCAM + "match_batch", None),
    ("switch.pipeline", _TCAM + "install", None),
    ("switch.pipeline", _TCAM + "evict", _count_truthy("tcam_evictions")),
    ("switch.pipeline", _TCAM + "evict_if", _count_result_len("tcam_evictions")),
    ("switch.pipeline", _TCAM + "evict_expired", None),
    ("switch.cache", _CACHE + "install", None),
    ("switch.cache", _CACHE + "expire", None),
    ("switch.cache", _CACHE + "set_capacity", None),
    ("switch.cache", _CACHE + "set_reservations", None),
    ("switch.cache", _CACHE + "invalidate_origin", None),
    ("switch.cache", _CACHE + "flush", None),
    ("core.authority", _DPS + "handle_packet", None),
    ("core.authority", _DPS + "handle_burst", None),
    ("core.authority", _DPS + "handle_batch", None),
    ("core.authority", _DPS + "execute", None),
    ("core.authority", _DIFANE + "process", None),
    ("core.authority", _DIFANE + "process_batch", None),
    ("core.authority", _DIFANE + "process_packet_batch", None),
    ("core.authority", _DIFANE + "receive_control", None),
    ("core.authority", _DIFANE + "install_cache_rule", None),
    ("core.authority", _DIFANE + "install_cache_rule_times", None),
    ("core.authority", _DIFANE + "install_cache_rules", None),
    ("core.authority", _DIFANE + "install_cache_rules_times", None),
    ("core.authority", _DIFANE + "tick", None),
    ("core.cachegen", _CGEN + "win_region", None),
    ("core.cachegen", _CGEN + "win_fragment", None),
    ("core.cachegen", _CGEN + "generate_cache_rule", None),
    ("core.cachegen", _CGEN + "generate_cache_rules", None),
    ("core.controller", "repro.core.controller:DifaneNetwork.build", None),
    ("core.controller", _CTRL + "install_policy", None),
    ("core.controller", _CTRL + "partition_cache_budgets", None),
    ("core.controller", _CTRL + "rebalance", None),
    ("core.controller", _CTRL + "failover_partition", None),
    ("core.controller", "repro.core.partition:partition_policy", None),
    ("core.shards", _SHARDS + "attach_sharded_control_plane", None),
    ("core.shards", _SHARDS + "ShardedControlPlane.start", None),
    ("core.shards", _SHARDS + "ShardedControlPlane.handle_authority_failure", None),
    ("core.shards", _SHARDS + "ShardedControlPlane.kill_shard", None),
    ("core.shards", _SHARDS + "PartitionMigrator.migrate", None),
    ("core.shards", _SHARDS + "Rebalancer.start", None),
    ("openflow.channel", _CHANNEL + "send_to_controller", None),
    ("openflow.channel", _CHANNEL + "send_to_switch", None),
    ("openflow.channel", _CHANNEL + "drain_pending", None),
    ("obs", "repro.obs.sketch:DeliverySketchObserver.record", None),
    ("obs", "repro.obs.sketch:DeliverySketchObserver.block", None),
    ("obs", "repro.obs.sketch:DeliverySketchObserver.offer_destinations", None),
    ("obs", "repro.obs.sketch:DeliverySketchObserver.probe", None),
    ("obs", "repro.net.simnet:DeliveryLog.append", None),
    ("obs", "repro.net.simnet:DeliveryLog.append_block", _block_records),
    ("obs", "repro.obs.telemetry:TelemetryRecorder.roll", None),
    ("obs", "repro.obs.telemetry:TelemetryRecorder.flush", None),
    ("obs", "repro.obs.trace:PacketTracer.record", None),
    ("obs", "repro.obs.trace:PacketTracer.record_batch", None),
    ("obs", "repro.obs.flowtrace:FlowTraceAnalysis.from_tracer", None),
    ("obs", "repro.obs.health:evaluate_telemetry", None),
    ("obs", "repro.obs.health:slo_report", None),
    ("obs", "repro.obs.qos:FlowClassifier.classify_bits", None),
    ("baselines", "repro.baselines.microflow_cache:simulate_wildcard_cache", None),
    ("baselines", "repro.baselines.microflow_cache:simulate_microflow_cache", None),
)

#: Hooks whose third positional argument is a callback to fire later.
_SCHEDULE_HOOKS = frozenset({
    "EventScheduler.schedule", "EventScheduler.schedule_at",
    "EventScheduler.schedule_batch",
})

# Frame slots.  A frame is a list mutated in place, one per open span; the
# inlined hot path of ``Tracer.wrap`` builds only the first four.
_CHILD, _SPAN, _TRACE, _LAYER, _NAME, _START, _PARENT, _CAUSE = range(8)


class _Dispatch:
    """A scheduled callback that fires inside a span of its own: the layer
    is the one owning the callback's module, ``cause`` the ``schedule*``
    span that put it on the heap, ``trace`` the trace that span ran in."""

    __slots__ = ("tracer", "__wrapped__", "layer", "name", "trace", "cause")

    def __init__(self, tracer, callback, described, trace, cause):
        self.tracer = tracer
        self.__wrapped__ = callback
        self.layer, self.name = described
        self.trace = trace
        self.cause = cause

    def __call__(self, *args):
        tracer = self.tracer
        tracer.dispatches += 1
        frame = tracer.begin(self.layer, self.name, self.trace, self.cause)
        try:
            return self.__wrapped__(*args)
        finally:
            tracer.end(frame)


class Tracer:
    """A single-threaded span tracer over monkey-patched public callables."""

    def __init__(self, sample_every: int = 64,
                 clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.sample_every = sample_every
        #: layer -> [calls, self seconds]
        self.layers: Dict[str, List[float]] = {}
        #: span name -> [calls, inclusive seconds, self seconds]
        self.names: Dict[str, List[float]] = {}
        #: probe counters (see the probes above)
        self.counters: Dict[str, object] = {}
        #: sampled span records: (span, name, layer, start, end, parent,
        #: cause, trace); parent 0 = none
        self.spans: List[tuple] = []
        self.dispatches = 0
        self.missing: List[str] = []
        # A permanent base frame (span 0, trace 0, the driver's layer), so
        # that every span, the root included, has a parent frame to charge.
        self._stack: List[list] = [[0.0, 0, 0, "experiments"]]
        self._ids = itertools.count(1)
        self._patched: List[Tuple[object, str, object]] = []
        self._traces = 0
        #: callback function -> (layer, span name) of its dispatches
        self._described: Dict[object, Tuple[str, str]] = {}

    # -- spans ----------------------------------------------------------------
    def begin(self, layer: str, name: str, trace: Optional[int] = None,
              cause: Optional[int] = None) -> list:
        """Open a span nested in the current one; returns its frame."""
        stack = self._stack
        parent = stack[-1]
        frame = [0.0, next(self._ids), parent[_TRACE] if trace is None else trace,
                 layer, name, 0.0, parent[_SPAN], cause]
        stack.append(frame)
        frame[_START] = self.clock()
        return frame

    def end(self, frame: list) -> float:
        """Close ``frame`` (the innermost open span); returns its duration."""
        finished = self.clock()
        stack = self._stack
        if stack[-1] is not frame:
            raise RuntimeError("spans must close innermost first")
        stack.pop()
        duration = finished - frame[_START]
        own = duration - frame[_CHILD]
        stack[-1][_CHILD] += duration
        by_layer = self.layers.setdefault(frame[_LAYER], [0, 0.0])
        by_layer[0] += 1
        by_layer[1] += own
        by_name = self.names.setdefault(frame[_NAME], [0, 0.0, 0.0])
        by_name[0] += 1
        by_name[1] += duration
        by_name[2] += own
        if self._sampled(frame[_TRACE], frame[_SPAN], len(stack)):
            self.spans.append((
                frame[_SPAN], frame[_NAME], frame[_LAYER], frame[_START],
                finished, frame[_PARENT], frame[_CAUSE], frame[_TRACE],
            ))
        return duration

    def _sampled(self, trace: int, span: int, depth: int) -> bool:
        """Keep 1 trace in ``sample_every`` whole; thin the driver's own
        trace (0: set-up, offering, replays, background timers) span by
        span, but always keep the root (``depth`` is the stack's length
        once the span is popped, so 1 = only the base frame is left)."""
        return (trace or span) % self.sample_every == 0 or depth < 2

    # -- wrappers -------------------------------------------------------------
    def wrap(self, fn: Callable, layer: str, name: str,
             probe: Optional[Callable] = None) -> Callable:
        """A timing wrapper around ``fn`` (each ``next`` of a generator
        function is its own span, so lazy workloads are timed as consumed).

        The plain-function wrapper is :meth:`begin` / :meth:`end` inlined,
        with this hook's aggregates bound ahead of time: it runs a million
        times in a traced soak, and whatever it costs lands in the self
        time of the layer that made the call.
        """
        if inspect.isgeneratorfunction(fn):
            begin, end = self.begin, self.end

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    frame = begin(layer, name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        end(frame)
                    yield item
            return traced_generator

        stack, clock, ids = self._stack, self.clock, self._ids
        spans, every, counters = self.spans, self.sample_every, self.counters
        by_layer = self.layers.setdefault(layer, [0, 0.0])
        by_name = self.names.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, next(ids), parent[2], layer]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    probe(counters, args, result)
                return result
            finally:
                finished = clock()
                stack.pop()
                duration = finished - started
                own = duration - frame[0]
                parent[0] += duration
                by_layer[0] += 1
                by_layer[1] += own
                by_name[0] += 1
                by_name[1] += duration
                by_name[2] += own
                # self._sampled(), inlined
                if (frame[2] or frame[1]) % every == 0 or len(stack) < 2:
                    spans.append((frame[1], name, layer, started, finished,
                                  parent[1], None, frame[2]))
        return traced

    def _wrap_schedule(self, fn: Callable, layer: str, name: str) -> Callable:
        """``schedule*`` wrapper: a span, plus a dispatch span around the
        callback when it fires.  ``schedule_batch`` → ``schedule`` →
        ``schedule_at`` nest; only the outermost wraps the callback."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced_schedule(scheduler, when, callback, *args, **kwargs):
            frame = begin(layer, name)
            try:
                if type(callback) is not _Dispatch:
                    callback = self._dispatch(callback, frame)
                return fn(scheduler, when, callback, *args, **kwargs)
            finally:
                end(frame)
        return traced_schedule

    def _dispatch(self, callback: Callable, scheduling: list) -> "_Dispatch":
        target = getattr(callback, "func", callback)      # functools.partial
        target = getattr(target, "__func__", target)      # bound method
        described = self._described.get(target)
        if described is None:
            described = self._described[target] = (
                layer_of_module(getattr(target, "__module__", None)),
                "dispatch:" + getattr(
                    target, "__qualname__", type(target).__name__),
            )
        # The driver offering traffic starts a new trace; everything a
        # dispatch schedules in turn belongs to the trace it runs in.
        if self._stack[-2][_LAYER] == "experiments":
            self._traces += 1
            trace = self._traces
        else:
            trace = scheduling[_TRACE]
        return _Dispatch(self, callback, described, trace, scheduling[_SPAN])

    # -- patching -------------------------------------------------------------
    def patch(self, hooks: Iterable[Tuple[str, str, Optional[Callable]]] = HOOKS
              ) -> None:
        """Install a wrapper for every hook that resolves.

        Class attributes are replaced on the class that defines them;
        module-level functions in every loaded ``repro`` module whose
        attribute *is* the original object, so ``from x import y``
        bindings made before the patch are caught too.
        """
        for layer, target, probe in hooks:
            resolved = _resolve(target)
            if resolved is None:
                self.missing.append(target)
                continue
            owner, attribute, raw = resolved
            name = target.split(":", 1)[1]
            if inspect.isclass(owner):
                self._patched.append((owner, attribute, raw))
                setattr(owner, attribute, self._rewrap(raw, layer, name, probe))
            else:
                wrapped = self.wrap(raw, layer, name, probe)
                for module, bound_as in rebind(raw, wrapped):
                    self._patched.append((module, bound_as, raw))

    def _rewrap(self, raw, layer, name, probe):
        """Wrap a class attribute, keeping ``classmethod`` / ``staticmethod``."""
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        if name in _SCHEDULE_HOOKS:
            wrapped = self._wrap_schedule(fn, layer, name)
        else:
            wrapped = self.wrap(fn, layer, name, probe)
        return kind(wrapped) if kind is not None else wrapped

    def unpatch(self) -> None:
        """Put every original back (reverse order of installation)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- output ---------------------------------------------------------------
    def write_spans(self, path: str, origin: float = 0.0) -> None:
        """Write the sampled spans as JSON Lines.

        Times are seconds of host time since ``origin`` (the root span's
        start).  ``parent`` is the enclosing span, ``cause`` the
        ``schedule*`` span that put a dispatch on the event heap.
        """
        with open(path, "w") as handle:
            for span, name, layer, start, end, parent, cause, trace in self.spans:
                handle.write(json.dumps({
                    "span": span, "name": name, "layer": layer,
                    "start": start - origin, "end": end - origin,
                    "parent": parent, "cause": cause, "trace": trace,
                }) + "\n")


def rebind(original, replacement) -> List[Tuple[object, str]]:
    """Point every loaded ``repro`` module attribute that *is* ``original``
    at ``replacement``; returns the ``(module, attribute)`` pairs changed."""
    changed = []
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".", 1)[0] != "repro":
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)
                changed.append((module, attribute))
    return changed


def _resolve(target: str):
    """``(owner, attribute, raw object)`` for ``"module:dotted.name"``, or
    ``None`` when any step no longer exists.  ``raw`` is the object in the
    owner's ``__dict__`` (so ``classmethod`` wrappers are seen as such)."""
    module_name, _, dotted = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attribute = dotted.split(".")
    for step in path:
        owner = getattr(owner, step, None)
        if owner is None:
            return None
    raw = vars(owner).get(attribute)
    if raw is None or not callable(getattr(raw, "__func__", raw)):
        return None
    return owner, attribute, raw
