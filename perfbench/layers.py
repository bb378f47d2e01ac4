"""Per-layer timing for the traced run.

:meth:`LayerTracer.install` wraps public functions of the program from
outside: it rebinds each target in its defining module, in every loaded
``repro`` module that imported it by name, or on its class.  Each wrapper
records a span; a layer's self time is its span minus the spans nested
in it.  The untraced run installs nothing, so its end-to-end metrics
carry no tracing cost.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: Timed layers: (layer, module, attribute).  ``evaluate_initial`` is
#: ``mem.capture`` when it records a memory trace, else ``power.initial``.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("lang.compile", "repro.core.flow", "AppSpec.compile"),
    ("lang.profile", "repro.lang.interp", "Interpreter.run"),
    ("isa.link", "repro.isa.image", "link_program"),
    ("power.initial", "repro.power.system", "evaluate_initial"),
    ("power.partitioned", "repro.power.system", "evaluate_partitioned"),
    ("core.sweep", "repro.core.partitioner", "Partitioner.run"),
    ("core.sweep", "repro.core.explore", "ExplorationEngine.sweep"),
    ("sched.schedule", "repro.sched.list_scheduler", "list_schedule"),
    ("sched.schedule", "repro.sched.binding", "bind_schedule"),
    ("synth.synthesis", "repro.synth.datapath", "build_datapath"),
    ("synth.synthesis", "repro.synth.fsm", "build_controller"),
    ("synth.synthesis", "repro.synth.gatesim", "estimate_gate_energy"),
    ("pareto.front", "repro.core.pareto", "pareto_front"),
    ("pareto.front", "repro.core.pareto", "knee_point"),
    ("pareto.front", "repro.core.pareto", "hypervolume"),
    ("mem.replay", "repro.mem.explore", "explore_cache_profiles"),
)

#: Every layer name, in report order.
LAYERS = ("lang.compile", "lang.profile", "isa.link", "power.initial",
          "power.partitioned", "core.sweep", "sched.schedule",
          "synth.synthesis", "pareto.front", "mem.capture", "mem.replay")

#: Metric name of each layer's call count.
CALL_METRICS = {
    "lang.compile": "lang.compile_calls",
    "lang.profile": "lang.profile_runs",
    "isa.link": "isa.link_calls",
    "power.initial": "power.initial_calls",
    "power.partitioned": "power.partitioned_calls",
    "core.sweep": "core.sweep_calls",
    "sched.schedule": "sched.schedule_calls",
    "synth.synthesis": "synth.synthesis_calls",
    "pareto.front": "pareto.front_calls",
    "mem.capture": "mem.capture_calls",
    "mem.replay": "mem.replay_calls",
}


class LayerTracer:
    """Spans, self times and work counts of the wrapped layers.

    Thread-safe: each thread keeps its own span stack (the service runs
    evaluations on a lane thread beside the event loop) and the totals
    are updated under one lock.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.inputs: set = set()
        self.op_s = 0.0
        self.layer_in_op_s = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, layer: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer``; returns its result."""
        stack = self._stack()
        frame = [0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            own = elapsed - frame[0]
            with self._lock:
                self.self_s[layer] += own
                self.calls[layer] += 1
                if getattr(self._local, "in_op", False):
                    self.layer_in_op_s += own

    def op(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` as one benchmark op; returns ``(result, seconds)``."""
        self._local.in_op = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._local.in_op = False
            with self._lock:
                self.op_s += elapsed
        return result, elapsed

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.work[name] += amount

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every :data:`TARGETS` entry; :meth:`uninstall` undoes it."""
        for layer, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._rebind(owner, meth, original,
                             self._wrapper(layer, attr, original))
            else:
                original = getattr(module, attr)
                wrapper = self._wrapper(layer, attr, original)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("repro") \
                            and getattr(mod, attr, None) is original:
                        self._rebind(mod, attr, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrapper(self, layer: str, attr: str, original: Callable):
        tracer = self
        if attr == "Interpreter.run":
            def run(interp, *args):
                tracer._note_input(interp, args)
                result = tracer.span(layer, original, interp, *args)
                tracer.count("lang.steps", interp.profile.steps)
                return result
            return run
        if attr == "evaluate_initial":
            def evaluate_initial(*args, **kwargs):
                name = ("mem.capture" if kwargs.get("collect_trace")
                        else layer)
                run = tracer.span(name, original, *args, **kwargs)
                tracer._note_run(run)
                if run.stats is not None and run.stats.trace is not None:
                    tracer.count("mem.trace_events", len(run.stats.trace))
                return run
            return evaluate_initial
        if attr == "evaluate_partitioned":
            def evaluate_partitioned(*args, **kwargs):
                run = tracer.span(layer, original, *args, **kwargs)
                tracer._note_run(run)
                return run
            return evaluate_partitioned
        if attr in ("Partitioner.run", "ExplorationEngine.sweep"):
            def sweep(*args, **kwargs):
                decision = tracer.span(layer, original, *args, **kwargs)
                tracer.count("core.candidates", decision.examined)
                return decision
            return sweep
        if attr == "explore_cache_profiles":
            def replay(trace, space=None, *args, **kwargs):
                profiles = tracer.span(layer, original, trace, space,
                                       *args, **kwargs)
                tracer.count("mem.replay_events",
                             len(trace) * len(profiles))
                return profiles
            return replay

        def plain(*args, **kwargs):
            return tracer.span(layer, original, *args, **kwargs)
        return plain

    def _note_input(self, interp, args) -> None:
        """Record what one profiling run computes on: the program's
        operation sequence, its arguments and its initial globals."""
        code = hash(tuple(
            (name, tuple(tuple((op.kind, op.const, op.symbol)
                               for op in block.ops)
                         for block in cdfg.blocks.values()))
            for name, cdfg in interp.program.cdfgs.items()))
        data = hash(tuple(tuple(values)
                          for values in interp.globals.values()))
        with self._lock:
            self.inputs.add((code, tuple(args), data))

    def _note_run(self, run) -> None:
        if run.sim is not None:
            self.count("isa.instructions", run.sim.instructions)

    # -- report ----------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}_s"] = self.self_s.get(layer, 0.0)
            out[CALL_METRICS[layer]] = self.calls.get(layer, 0)
        runs = self.calls.get("lang.profile", 0)
        out["lang.profile_reuse"] = len(self.inputs) / runs if runs else 0.0
        out["lang.profile_steps_per_s"] = _rate(
            self.work["lang.steps"], self.self_s.get("lang.profile", 0.0))
        iss_s = sum(self.self_s.get(layer, 0.0) for layer in
                    ("power.initial", "power.partitioned", "mem.capture"))
        out["isa.instructions"] = self.work["isa.instructions"]
        out["isa.instr_per_s"] = _rate(self.work["isa.instructions"], iss_s)
        out["core.candidates"] = self.work["core.candidates"]
        out["mem.trace_events"] = self.work["mem.trace_events"]
        out["mem.replay_events_per_s"] = _rate(
            self.work["mem.replay_events"], self.self_s.get("mem.replay",
                                                            0.0))
        return out

    def unaccounted_share(self) -> float:
        """Share of op wall time spent outside every timed layer."""
        if self.op_s <= 0:
            return 0.0
        return max(0.0, 1.0 - self.layer_in_op_s / self.op_s)


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0
