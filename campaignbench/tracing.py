"""Traced runs: spans recorded from outside the program.

:class:`Tracer` wraps public functions and methods of the program's
layers (``repro.targets``, ``repro.core.*``, ``repro.db``,
``repro.analysis``, ``repro.workloads``) for the duration of a traced
campaign.  Each call records a span — name, start, end, parent span,
run id — kept in memory and written out when the run ends.  Nothing
under ``src/`` changes.

Rules:

* A call into a layer from inside an open span of the same layer (for
  example ``read_memory`` inside ``capture_state``) is not a layer
  boundary and records no span of its own.
* A layer's self time is its span durations minus the part covered by
  child spans and minus the wrapper's own cost, which
  :meth:`Tracer.calibrate` measures on a wrapped no-op.
* Only the benchmark's own process and thread record.  Forked workers
  inherit the wrappers but call straight through; their layers come
  from the program's telemetry snapshot instead.
"""

from __future__ import annotations

import json
import multiprocessing.queues
import os
import statistics
import sys
import threading
import time
from pathlib import Path

from repro.analysis import (
    campaign_report,
    classify_campaign,
    propagation_report,
    render_campaign_report,
    stats_report,
)
from repro.core.algorithms import FaultInjectionAlgorithms
from repro.core.campaign import PlanGenerator
from repro.core.events import EventBus
from repro.core.liveness import build_prune_plan
from repro.core.probes import ExperimentProbe, ProbeSession
from repro.core.resources import ResourceSampler
from repro.core import sharedstate
from repro.db import GoofiDatabase
from repro.targets.thor.interface import ThorTargetInterface
from repro.workloads.envsim import DCMotor

#: Span name → the (owner, attribute) pairs it wraps.  The span name's
#: prefix before the first dot is its layer.
METHOD_SPANS = {
    "targets.execution": [
        (ThorTargetInterface, name)
        for name in ("wait_for_breakpoint", "wait_for_termination", "run_until_cycle")
    ],
    "targets.injection": [
        (ThorTargetInterface, name)
        for name in (
            "read_scan_chain",
            "inject_fault",
            "write_scan_chain",
            "install_fault_overlay",
        )
    ],
    "targets.restore": [(ThorTargetInterface, "restore_state")],
    "targets.save": [(ThorTargetInterface, "save_state")],
    "targets.setup": [
        (ThorTargetInterface, name)
        for name in ("init_test_card", "set_environment", "load_workload", "run_workload")
    ],
    "targets.memory": [
        (ThorTargetInterface, name) for name in ("read_memory", "write_memory")
    ],
    "targets.readout": [(ThorTargetInterface, "capture_state")],
    "targets.record_trace": [(ThorTargetInterface, "record_trace")],
    "campaign.plan": [(PlanGenerator, "generate")],
    "algorithms.reference": [(FaultInjectionAlgorithms, "make_reference_run")],
    "probes.golden": [(ProbeSession, "create")],
    "probes.experiment": [
        (ExperimentProbe, name)
        for name in ("run_to_breakpoint", "run_to_termination", "finish")
    ]
    + [(ProbeSession, "observe")],
    "events.emit": [(EventBus, "emit")],
    "resources.sample": [(ResourceSampler, "sample"), (ResourceSampler, "maybe_sample")],
    "parallel.ingest_wait": [(multiprocessing.queues.Queue, "get")],
    "db.write_rows": [(GoofiDatabase, "save_experiments")],
    "db.write_records": [
        (GoofiDatabase, name)
        for name in ("save_spans", "save_probes", "save_resource_samples")
    ],
    "workloads.env": [(DCMotor, "exchange")],
}

#: Span name → module-level function it wraps, in every ``repro``
#: module that imported it.
FUNCTION_SPANS = {
    "liveness.prune": build_prune_plan,
    "sharedstate.publish": sharedstate.publish,
    "analysis.classify": classify_campaign,
    "analysis.report": campaign_report,
    "analysis.stats": stats_report,
    "analysis.propagation": propagation_report,
    "analysis.html": render_campaign_report,
}

#: Generator methods whose per-row ``next()`` time is summed into the
#: ``db.read`` counter (a generator's call returns before any work).
READERS = (
    "iter_experiments",
    "iter_spans",
    "iter_probes",
    "iter_resource_samples",
    "iter_history",
)

#: Spans whose first argument is a list of records; the span counts them.
_COUNTED = {"db.write_rows", "db.write_records"}


class _Probe:
    """What :meth:`Tracer.calibrate` wraps."""

    def noop(self) -> None:
        return None


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "run", "count", "excluded")

    def __init__(self, span_id, parent, name, run):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = self.end = 0.0
        self.run = run
        #: Records written (db spans) or simulated cycles (execution).
        self.count = 0
        #: Time inside the span that is not its own: its direct child
        #: spans, and the wrapper's cost of those children, of
        #: same-layer calls made inside it, and of itself.
        self.excluded = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.excluded

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "run": self.run,
            "count": self.count,
        }


class Tracer:
    """Installs the wrappers, collects spans per run, restores on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        #: ``[seconds, rows]`` spent in ``next()`` of the ``iter_*`` readers.
        self.read = [0.0, 0]
        self._stack: list[Span] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        self._restore: list[tuple[object, str, object, bool]] = []
        #: The wrapper's cost per call, seconds (see :meth:`calibrate`).
        self.cost_inside = self.cost_outside = self.cost_passthrough = 0.0

    # ------------------------------------------------------------------
    def _recording(self) -> bool:
        return os.getpid() == self._pid and threading.get_ident() == self._thread

    def _call(self, name: str, layer: str, func, args, kwargs):
        stack = self._stack
        if not self._recording():
            return func(*args, **kwargs)
        if stack and stack[-1].name.startswith(layer):
            stack[-1].excluded += self.cost_passthrough
            return func(*args, **kwargs)
        parent = stack[-1] if stack else None
        span = Span(len(self.spans), parent.id if parent else None, name, self.run)
        self.spans.append(span)
        stack.append(span)
        cycles_before = args[0].current_cycle() if name == "targets.execution" else 0
        span.start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            span.excluded += self.cost_inside
            if parent is not None:
                parent.excluded += span.duration + self.cost_outside
            if name == "targets.execution":
                span.count = args[0].current_cycle() - cycles_before
            elif name in _COUNTED:
                span.count = len(args[1])

    def _wrap(self, name: str, func):
        layer = name.split(".", 1)[0] + "."
        call = self._call

        def wrapper(*args, **kwargs):
            return call(name, layer, func, args, kwargs)

        wrapper.__wrapped__ = func
        return wrapper

    def calibrate(self, calls: int = 20000, repeats: int = 5) -> None:
        """Measure the wrapper's own cost per call, on a wrapped no-op
        timed against the bare no-op: the part inside the span it
        records, the part around it, and the cost of a same-layer call
        that records no span.  Medians over ``repeats``."""
        probe = _Probe()
        bare = _Probe.noop
        wrapped = self._wrap("calibration.noop", bare)
        clock = time.perf_counter
        inside, outside, passthrough = [], [], []
        for _ in range(repeats):
            self.begin("calibration")
            t0 = clock()
            for _ in range(calls):
                pass
            t1 = clock()
            for _ in range(calls):
                bare(probe)
            t2 = clock()
            for _ in range(calls):
                wrapped(probe)
            t3 = clock()
            self._stack.append(Span(-1, None, "calibration.outer", self.run))
            t4 = clock()
            for _ in range(calls):
                wrapped(probe)
            t5 = clock()
            bare_call = (t2 - t1) / calls
            call = bare_call - (t1 - t0) / calls
            in_span = sum(span.duration for span in self.spans) / calls - call
            inside.append(in_span)
            outside.append((t3 - t2) / calls - bare_call - in_span)
            passthrough.append((t5 - t4) / calls - bare_call)
        self.begin("")
        self.cost_inside = max(0.0, statistics.median(inside))
        self.cost_outside = max(0.0, statistics.median(outside))
        self.cost_passthrough = max(0.0, statistics.median(passthrough))

    def _wrap_reader(self, func):
        tracer = self

        def reader(*args, **kwargs):
            iterator = func(*args, **kwargs)
            if not tracer._recording():
                yield from iterator
                return
            clock = time.perf_counter
            while True:
                started = clock()
                try:
                    row = next(iterator)
                except StopIteration:
                    tracer.read[0] += clock() - started
                    return
                tracer.read[0] += clock() - started
                tracer.read[1] += 1
                yield row

        return reader

    def _patch(self, owner, attr: str, make) -> None:
        raw = next(k.__dict__[attr] for k in owner.__mro__ if attr in k.__dict__)
        own = attr in owner.__dict__
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(make(raw.__func__))
        else:
            patched = make(raw)
        self._restore.append((owner, attr, raw, own))
        setattr(owner, attr, patched)

    def install(self) -> None:
        for name, targets in METHOD_SPANS.items():
            for owner, attr in targets:
                self._patch(owner, attr, lambda f, name=name: self._wrap(name, f))
        for attr in READERS:
            self._patch(GoofiDatabase, attr, self._wrap_reader)
        for name, func in FUNCTION_SPANS.items():
            wrapped = self._wrap(name, func)
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if namespace is None or not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(namespace.items()):
                    if value is func:
                        self._restore.append((module, attr, func, True))
                        setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw, own = self._restore.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def begin(self, run: str) -> None:
        """Start a new run: spans and reader counters are per run."""
        self.spans = []
        self._stack = []
        self.read = [0.0, 0]
        self.run = run

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")
