"""The traced run: per-layer self time from wrappers around the program.

:func:`instrument` wraps, from outside the program, every public function
of each layer's modules, the public methods of the classes they define,
and the runtime's private event callbacks.  Each call that enters a layer
from a different one opens a span; a layer's **self time** is the sum over
its spans of the span's duration minus the durations of the spans nested
directly inside it.  Time no wrapped layer claims — the benchmark's own
code, and modules not listed here (the network facade, peers, stores,
ranges), which are charged to whichever layer called them — is the root
span's self time, ``other``.  By construction the self times of all layers
sum to the traced window's wall time.

Simulator events and future done-callbacks are wrapped as they are
scheduled and attributed to the layer whose module defined the callback,
so the engine's self time is its heap and loop alone, and the workload
driver's arrival and settle closures count as ``driver``.

A wrapper that misses a call site must fail loudly rather than
under-report.  Installing rebinds every module-level alias of a wrapped
function (``from repro.core.search import hop_candidates``); it then
asks the garbage collector for anything that still refers to an
unwrapped original and raises :class:`TraceError` if it finds one.
:func:`layer_metrics` also checks the traced counts against the program's
own counters and raises on any mismatch.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import sys
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: The root span's layer: everything not inside a wrapped layer.
ROOT = "other"

#: Layer name -> the modules whose public functions and classes it owns.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("keys", ("repro.workloads.generators",)),
    ("build", ("repro.core.bulk_build",)),
    ("engine", ("repro.sim.engine",)),
    ("runtime", ("repro.sim.runtime",)),
    ("topology", ("repro.sim.topology", "repro.sim.latency")),
    ("faults", ("repro.sim.faults",)),
    ("bus", ("repro.net.bus",)),
    ("search", ("repro.core.search",)),
    ("cache", ("repro.core.cache",)),
    ("membership", ("repro.core.join", "repro.core.leave", "repro.core.failure")),
    ("links", ("repro.core.restructure", "repro.core.links")),
    ("driver", ("repro.workloads.concurrent",)),
)

#: Every layer a self time is reported for (``sweep`` is carved out of
#: the runtime's classes, see :data:`SWEEP_METHODS`).
ALL_LAYERS = tuple(name for name, _ in LAYERS) + ("sweep", ROOT)

RUNTIME = "repro.sim.runtime"
#: Runtime methods that are zero-event oracle sweeps, not event-loop work.
SWEEP_METHODS = frozenset({"reconcile", "repair_all"})
#: Private runtime methods wrapped anyway: the per-hop event callbacks.
RUNTIME_CALLBACKS = frozenset(
    {
        "_launch",
        "_advance",
        "_advance_chaos",
        "_transmit",
        "_deliver_update",
        "_flush_updates_to",
    }
)
#: Left unwrapped, so their time stays with their caller: plain data
#: containers, and per-item helpers a layer calls in tight loops on its
#: own behalf (a wrapper there would only add the tracer's per-call cost
#: to that layer's self time).
UNWRAPPED = frozenset(
    {
        "repro.core.links.NodeInfo",
        "repro.core.links.RoutingTable",
        "repro.workloads.generators.UniformKeys",
        "repro.workloads.generators.ZipfianKeys",
        "repro.net.bus.Trace",
        "repro.net.bus.TrafficStats",
        "repro.sim.engine.Simulator.step",
    }
)

# Qualified names the metrics and cross-checks read.
BUS_SEND = "repro.net.bus.MessageBus.send"
HOP_CANDIDATES = "repro.core.search.hop_candidates"
JUDGE = "repro.sim.faults.FaultPlan.judge"
TRANSMIT = f"{RUNTIME}.AsyncOverlayRuntime._transmit"
ADVANCE_CHAOS = f"{RUNTIME}.AsyncOverlayRuntime._advance_chaos"
CACHE_LOOKUP = "repro.core.cache.RouteCache.lookup"
REFRESH = "repro.core.restructure.refresh_links_from_map"
SCHEDULES = frozenset(
    {"repro.sim.engine.Simulator.schedule", "repro.sim.engine.Simulator.schedule_at"}
)
ADD_DONE_CALLBACK = f"{RUNTIME}.OpFuture.add_done_callback"
MEMBERSHIP_SUBMITS = tuple(
    f"{RUNTIME}.AsyncOverlayRuntime.{name}"
    for name in ("submit_join", "submit_leave", "submit_fail", "submit_repair")
)
SAMPLE_PREFIXES = ("repro.sim.topology.", "repro.sim.latency.")


class TraceError(RuntimeError):
    """The trace missed a call site, or disagrees with the program's counters."""


class Tracer:
    """Span stack and per-layer accumulators for one traced window.

    ``clock`` is injectable so the self-time arithmetic can be tested on a
    synthetic span tree.  :meth:`start` opens the root span; each
    :meth:`enter` / :meth:`exit` pair is one span; :meth:`stop` closes the
    root and adds its duration to :attr:`wall_s`.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        #: Spans opened per layer (entries from another layer).
        self.entries: Counter = Counter()
        #: Calls per wrapped function, by qualified name (nested too).
        self.calls: Counter = Counter()
        #: Quantities observed on arguments and results.
        self.tallies: Counter = Counter()
        #: Simulator events executed (wrapped actions run).
        self.events = 0
        self.wall_s = 0.0
        #: Frames ``[layer, start, child time]``; the list object is kept
        #: for the tracer's lifetime because wrappers hold it.
        self.stack: List[list] = [[ROOT, clock(), 0.0]]
        self.checkpoints: Dict[str, tuple] = {}
        self._file_layers: Dict[str, str] = {}

    def start(self) -> None:
        self.stack[:] = [[ROOT, self.clock(), 0.0]]

    def enter(self, layer: str) -> None:
        self.entries[layer] += 1
        self.stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        layer, started, child = self.stack.pop()
        duration = self.clock() - started
        self.self_s[layer] += duration - child
        self.inclusive_s[layer] += duration
        self.stack[-1][2] += duration

    def stop(self) -> float:
        """Close the root span; returns its duration."""
        if len(self.stack) != 1:
            raise TraceError(f"unbalanced spans: {[f[0] for f in self.stack]}")
        layer, started, child = self.stack[0]
        duration = self.clock() - started
        self.self_s[layer] += duration - child
        self.wall_s += duration
        self.stack[0] = [ROOT, self.clock(), 0.0]
        return duration

    def checkpoint(self, name: str) -> None:
        """Remember the counters at a phase boundary."""
        self.checkpoints[name] = (Counter(self.calls), dict(self.inclusive_s))

    def between(self, first: str, second: str) -> Tuple[Counter, Dict[str, float]]:
        """(calls, inclusive seconds) accumulated between two checkpoints."""
        calls_a, inclusive_a = self.checkpoints[first]
        calls_b, inclusive_b = self.checkpoints[second]
        inclusive = {
            layer: inclusive_b.get(layer, 0.0) - inclusive_a.get(layer, 0.0)
            for layer in inclusive_b
        }
        return calls_b - calls_a, inclusive

    # -- wrappers ---------------------------------------------------------

    def layer_of(self, callback: Callable) -> str:
        """The layer a scheduled callback belongs to, by its defining file."""
        target = getattr(callback, "__func__", callback)
        layer = getattr(target, "_trace_layer", None)
        if layer is not None:
            return layer
        code = getattr(target, "__code__", None)
        return self._file_layers.get(code.co_filename, ROOT) if code else ROOT

    def callback(self, callback: Callable) -> Callable:
        """``callback`` wrapped to run as a span of the layer that defined it."""
        layer = self.layer_of(callback)
        stack, enter, exit_ = self.stack, self.enter, self.exit

        def traced_callback(*args):
            if stack[-1][0] == layer:
                return callback(*args)
            enter(layer)
            try:
                return callback(*args)
            finally:
                exit_()

        traced_callback._trace_layer = layer
        return traced_callback

    def event(self, action: Callable) -> Callable:
        run = self.callback(action)

        def traced_event():
            self.events += 1
            run()

        traced_event._trace_layer = run._trace_layer
        return traced_event

    def generator(self, layer: str, steps) -> Iterator:
        """Proxy a step generator so each resumption is a span of ``layer``."""
        stack, enter, exit_ = self.stack, self.enter, self.exit
        sent = None
        thrown: Optional[BaseException] = None
        while True:
            switch = stack[-1][0] != layer
            if switch:
                enter(layer)
            try:
                if thrown is not None:
                    item = steps.throw(thrown)
                else:
                    item = steps.send(sent)
            except StopIteration as stop:
                return stop.value
            finally:
                if switch:
                    exit_()
            thrown = None
            try:
                sent = yield item
            except GeneratorExit:
                steps.close()
                raise
            except BaseException as error:  # noqa: BLE001 - re-raised by steps.throw
                thrown = error

    def wrap(self, layer: str, qualname: str, function: Callable) -> Callable:
        calls, stack, enter, exit_ = self.calls, self.stack, self.enter, self.exit
        prepare = _PREPARE.get(qualname)
        observe = _OBSERVE.get(qualname)
        steps = inspect.isgeneratorfunction(function)
        tracer = self

        def traced(*args, **kwargs):
            calls[qualname] += 1
            if prepare is not None:
                args = prepare(tracer, args)
            if stack[-1][0] == layer:
                result = function(*args, **kwargs)
            else:
                enter(layer)
                try:
                    result = function(*args, **kwargs)
                finally:
                    exit_()
            if observe is not None:
                observe(tracer, args, kwargs, result)
            if steps:
                return tracer.generator(layer, result)
            return result

        traced.__name__ = function.__name__
        traced.__qualname__ = function.__qualname__
        traced.__doc__ = function.__doc__
        traced._trace_layer = layer
        return traced


def _wrap_action(tracer: Tracer, args: tuple) -> tuple:
    # Simulator.schedule(self, delay, action, label) / schedule_at(self, time, ...)
    return args[:2] + (tracer.event(args[2]),) + args[3:]


def _wrap_done_callback(tracer: Tracer, args: tuple) -> tuple:
    # OpFuture.add_done_callback(self, callback)
    return (args[0], tracer.callback(args[1]))


def _observe_candidates(tracer: Tracer, args, kwargs, result) -> None:
    primary, fallback = result
    tracer.tallies["search.candidates"] += len(primary) + len(fallback)


def _observe_judge(tracer: Tracer, args, kwargs, result) -> None:
    tracer.tallies["faults.delivered"] += bool(result[0])


def _observe_transmit(tracer: Tracer, args, kwargs, result) -> None:
    # _transmit(self, future, hop, steps, advance, label, attempt)
    if args[6] > 0:
        tracer.tallies["faults.retries"] += 1


def _observe_advance_chaos(tracer: Tracer, args, kwargs, result) -> None:
    if kwargs.get("throw") is not None:
        tracer.tallies["faults.gave_up"] += 1


_PREPARE = {name: _wrap_action for name in SCHEDULES}
_PREPARE[ADD_DONE_CALLBACK] = _wrap_done_callback
_OBSERVE = {
    HOP_CANDIDATES: _observe_candidates,
    JUDGE: _observe_judge,
    TRANSMIT: _observe_transmit,
    ADVANCE_CHAOS: _observe_advance_chaos,
}


def targets() -> Iterator[Tuple[object, str, str, str]]:
    """``(owner, attribute, layer, qualified name)`` of everything wrapped."""
    for layer, module_names in LAYERS:
        for module_name in module_names:
            module = importlib.import_module(module_name)
            for name, value in list(vars(module).items()):
                if name.startswith("_") or getattr(value, "__module__", None) != module_name:
                    continue
                qualname = f"{module_name}.{name}"
                if qualname in UNWRAPPED:
                    continue
                if isinstance(value, types.FunctionType):
                    yield module, name, layer, qualname
                elif isinstance(value, type):
                    for attr, member in list(vars(value).items()):
                        if attr.startswith("_") and not (
                            module_name == RUNTIME and attr in RUNTIME_CALLBACKS
                        ):
                            continue
                        if f"{qualname}.{attr}" in UNWRAPPED or not isinstance(
                            member, (types.FunctionType, staticmethod, classmethod)
                        ):
                            continue
                        owner_layer = layer
                        if module_name == RUNTIME and attr in SWEEP_METHODS:
                            owner_layer = "sweep"
                        yield value, attr, owner_layer, f"{qualname}.{attr}"


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer``'s wrappers for the duration; restore on exit."""
    restore: List[tuple] = []
    originals: Dict[int, tuple] = {}
    try:
        _install(tracer, originals, restore)
        _rebind_aliases(originals, restore)
        _verify_no_stale_references(originals, restore)
        yield tracer
    finally:
        for owner, name, value in reversed(restore):
            setattr(owner, name, value)


def _install(tracer: Tracer, originals: Dict[int, tuple], restore: List[tuple]) -> None:
    """Replace every target with its wrapper (kept out of ``instrument``'s
    frame, so no loop variable outlives it holding an original)."""
    for owner, name, layer, qualname in targets():
        raw = vars(owner)[name]
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        function = raw.__func__ if kind is not None else raw
        wrapper = tracer.wrap(layer, qualname, function)
        setattr(owner, name, kind(wrapper) if kind is not None else wrapper)
        restore.append((owner, name, raw))
        originals[id(function)] = (function, wrapper)
    for layer, module_names in LAYERS:
        for module_name in module_names:
            tracer._file_layers[sys.modules[module_name].__file__] = layer


def _rebind_aliases(originals: Dict[int, tuple], restore: List[tuple]) -> None:
    """Point every module-level alias of a wrapped function at its wrapper."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            entry = originals.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, name, entry[1])
                restore.append((module, name, value))


def _verify_no_stale_references(originals: Dict[int, tuple], restore: List[tuple]) -> None:
    """Raise if anything but the tracer still refers to an original."""
    gc.collect()
    functions = [function for function, _ in originals.values()]
    allowed = {id(functions), id(restore)}
    allowed.update(id(entry) for entry in restore)
    allowed.update(id(entry[2]) for entry in restore)  # saved descriptors
    allowed.update(id(entry) for entry in originals.values())
    for _, wrapper in originals.values():
        allowed.update(id(cell) for cell in wrapper.__closure__ or ())
    wanted = {id(function) for function in functions}
    for referrer in gc.get_referrers(*functions):
        if id(referrer) in allowed or inspect.isframe(referrer):
            continue
        names = sorted(
            getattr(ref, "__qualname__", "?")
            for ref in gc.get_referents(referrer)
            if id(ref) in wanted
        )
        raise TraceError(
            f"an unwrapped reference to {names} survives in a "
            f"{type(referrer).__name__}: that call site would bypass the trace"
        )


def layer_metrics(
    tracer: Tracer, traced, untraced, import_s: float
) -> Dict[str, float]:
    """Per-layer metrics of a traced round, cross-checked against the program.

    ``traced`` and ``untraced`` are :class:`perfbench.scenarios.Round` s of
    the same seed; phase walls and rates are read off the untraced one.
    """
    calls = tracer.calls
    self_s = tracer.self_s
    drive_calls, drive_inclusive = tracer.between("drive", "repair")
    reconcile_calls, _ = tracer.between("reconcile", "end")
    events = tracer.events
    sends = calls[BUS_SEND]
    hops = calls[HOP_CANDIDATES]
    judged = calls[JUDGE]
    delivered = tracer.tallies["faults.delivered"]
    membership_ops = sum(drive_calls[name] for name in MEMBERSHIP_SUBMITS)
    refreshes = calls[REFRESH]
    samples = sum(
        count
        for name, count in calls.items()
        if name.startswith(SAMPLE_PREFIXES) and name.endswith(".sample")
    )
    faults = traced.fault_stats

    checks = [
        ("bus.messages (drive)", drive_calls[BUS_SEND], traced.messages),
        ("sweep.reconcile_msgs", reconcile_calls[BUS_SEND], traced.reconcile_msgs),
        ("engine.events", events, traced.events),
        ("faults.retries", tracer.tallies["faults.retries"], faults.retries),
        ("faults.timeouts", judged - delivered, faults.timeouts),
        ("faults.gave_up", tracer.tallies["faults.gave_up"], faults.gave_up),
        ("behaviour", traced.fingerprint, untraced.fingerprint),
    ]
    for name, seen, expected in checks:
        if seen != expected:
            raise TraceError(f"{name}: trace counted {seen}, program reports {expected}")
    total_self = sum(self_s[layer] for layer in ALL_LAYERS)
    if abs(total_self - tracer.wall_s) > 1e-6 * max(1.0, tracer.wall_s):
        raise TraceError(f"self times sum to {total_self}, root span is {tracer.wall_s}")
    # The window also holds the benchmark's bookkeeping between phases
    # (~0.5-1% of it), so the self times are checked against the window
    # and the phases only have to fit inside it.
    if abs(total_self - traced.window_s) > 1e-3 * traced.window_s:
        raise TraceError(
            f"self times sum to {total_self} s but the traced window took "
            f"{traced.window_s} s"
        )
    if traced.wall_s > traced.window_s:
        raise TraceError(
            f"the traced phases took {traced.wall_s} s, longer than the "
            f"traced window ({traced.window_s} s)"
        )
    unknown = set(self_s) - set(ALL_LAYERS)
    if unknown:
        raise TraceError(f"time charged to unknown layers {sorted(unknown)}")

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return scale * numerator / denominator if denominator else 0.0

    return {
        "import.s": import_s,
        "keys.s": self_s["keys"],
        "keys.calls": tracer.entries["keys"],
        "build.s": self_s["build"],
        "engine.events": events,
        "engine.events_per_s": per(untraced.drive_events, untraced.drive_s),
        "engine.self_s": self_s["engine"],
        "engine.peak_heap": traced.peak_heap,
        "runtime.self_s": self_s["runtime"],
        "runtime.us_per_event": per(self_s["runtime"], events, 1e6),
        "runtime.max_in_flight": traced.max_in_flight,
        "topology.samples": samples,
        "topology.self_s": self_s["topology"],
        "faults.judged": judged,
        "faults.self_s": self_s["faults"],
        "faults.retries": faults.retries,
        "faults.timeouts": faults.timeouts,
        "faults.gave_up": faults.gave_up,
        "faults.delivered_frac": per(delivered, judged),
        "bus.messages": drive_calls[BUS_SEND],
        "bus.self_s": self_s["bus"],
        "bus.us_per_msg": per(self_s["bus"], sends, 1e6),
        "search.hops": hops,
        "search.self_s": self_s["search"],
        "search.us_per_hop": per(self_s["search"], hops, 1e6),
        "search.candidates_per_hop": per(tracer.tallies["search.candidates"], hops),
        "cache.lookups": calls[CACHE_LOOKUP],
        "cache.hit_rate": traced.report.cache_hit_rate,
        "cache.invalidations": traced.cache_invalidations,
        "cache.self_s": self_s["cache"],
        "membership.ops": membership_ops,
        "membership.self_s": self_s["membership"],
        "membership.us_per_op": per(self_s["membership"], membership_ops, 1e6),
        "links.refreshes": refreshes,
        "links.self_s": self_s["links"],
        "links.us_per_refresh": per(self_s["links"], refreshes, 1e6),
        "sweep.reconcile_s": untraced.reconcile_s,
        "sweep.reconcile_msgs": reconcile_calls[BUS_SEND],
        "sweep.repair_s": untraced.repair_s,
        "sweep.in_window_s": drive_inclusive.get("sweep", 0.0),
        "sweep.self_s": self_s["sweep"],
        "driver.self_s": self_s["driver"],
        "driver.us_per_op": per(self_s["driver"], traced.ops, 1e6),
        "other.self_s": self_s[ROOT],
        "trace.wall_s": tracer.wall_s,
        "trace.overhead_frac": traced.wall_s / untraced.wall_s - 1.0,
    }
