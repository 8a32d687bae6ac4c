"""Campaign executors: where a coordinated campaign's experiments run.

The paper's SCIFI campaigns run thousands of experiments serially
against one Thor board.  Our targets are deterministic pure-Python
simulators, so nothing prevents running experiments on all cores.

:class:`repro.core.coordinator.Coordinator` prepares a campaign once and
consumes one stream of ``(kind, worker, payload)`` messages.  Two
executors produce that stream, and both drive the same
:func:`shard_loop`:

* **In-process** (``workers == 1``): the shard loop runs in the
  coordinator's process on the coordinator's own target, reference
  trace and golden snapshots.  Nothing is pickled or published, and
  records pass as objects.
* **Process pool** (:func:`run_in_pool`, ``workers > 1``): the plan is
  sharded round-robin over N ``multiprocessing`` workers.  The
  coordinator publishes the worker-startup state once
  (:mod:`repro.core.sharedstate`); each worker builds the coordinator's
  algorithms class on a fresh target from the plugin registry
  (:func:`repro.core.plugins.create_target`), attaches that state, and
  forwards its shard loop's messages over a queue.

Message kinds, all picklable:

* ``result`` — an :class:`~repro.db.models.ExperimentRecord`;
* ``spans`` / ``probes`` / ``resources`` — the span records, probe
  summaries and resource samples finished since the last result;
* ``shard_end`` — the shard's checkpoint-cache counters and cProfile
  table, once per shard;
* pool only: ``started`` (shard size), ``metrics`` (the worker's
  telemetry registry), ``error`` (a traceback) and ``done``, always last.

Design rules:

* **Single writer** — only the coordinator touches SQLite and the event
  sinks; workers never open the database.
* **Bit-identical results** — every experiment re-initialises the test
  card and derives its randomness from the per-experiment seed already
  in the plan, so the logged rows (ignoring ``createdAt`` and insertion
  order) are the same for any worker count.
* **Abort drains** — an abort request stops every executor at its next
  experiment boundary; the coordinator keeps consuming until the stream
  ends, flushes pending records, and marks the campaign ``aborted``.
  Worker failures likewise abort the campaign without losing
  already-streamed records.
"""

from __future__ import annotations

import logging
import multiprocessing
import queue as queue_module
import traceback

from . import sharedstate
from .checkpoint import CheckpointCache
from .errors import GoofiError
from .probes import GoldenSnapshots, ProbeSession
from .profiling import ProfileCollector
from .resources import ResourceSampler
from .telemetry import NULL_TELEMETRY, Telemetry

logger = logging.getLogger(__name__)

#: Consecutive empty queue polls (of ``_POLL_SECONDS`` each) after a
#: worker process died before it is written off as crashed.
_DEAD_WORKER_GRACE_POLLS = 20
_POLL_SECONDS = 0.1


class WorkerFailure(GoofiError):
    """A campaign worker process raised or died; the campaign was
    aborted (already logged experiments are kept and resumable)."""


def _start_context():
    """``fork`` where available (cheap, inherits the plugin registries),
    ``spawn`` otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def fold_engine_stats(metrics, target) -> None:
    """Add a target's execution-engine counters to a registry."""
    for key, value in target.execution_stats().items():
        if key == "cycles":
            continue  # point-in-time, not a counter — summing it lies
        metrics.inc(f"engine.{key}", value)


def shard_loop(
    algorithms,
    config,
    trace,
    specs,
    worker: int,
    stop,
    *,
    telemetry,
    probes=None,
    checkpoints=None,
    sampler=None,
    profile: bool = False,
):
    """Run ``specs`` on ``algorithms``' target, yielding the messages
    described in the module docstring.

    The experiment bodies read their instruments — ``telemetry``,
    ``probes`` (a :class:`~repro.core.probes.ProbeSession`) and
    ``checkpoints`` (a :class:`~repro.core.checkpoint.CheckpointCache`)
    — from ``algorithms``; they are installed for the shard's duration.
    ``stop()`` is checked before each experiment.  ``sampler`` takes a
    cadence sample after each one; ``profile`` wraps the loop in
    :mod:`cProfile`."""
    run_experiment = algorithms.experiment_runner(config.technique)
    algorithms.telemetry = telemetry
    algorithms.probes = probes
    algorithms.checkpoints = checkpoints
    collector = ProfileCollector() if profile else None
    try:
        if collector is not None:
            collector.start()
        for spec in specs:
            if stop():
                break
            yield "result", worker, run_experiment(config, spec, trace)
            if telemetry.spans_enabled:
                yield "spans", worker, telemetry.drain_spans()
            if probes is not None and probes.has_pending:
                yield "probes", worker, probes.drain()
            if sampler is not None:
                sampler.maybe_sample()
                if sampler.pending:
                    yield "resources", worker, sampler.drain()
    finally:
        if collector is not None:
            collector.stop()
        algorithms.telemetry = NULL_TELEMETRY
        algorithms.probes = None
        algorithms.checkpoints = None
    yield "shard_end", worker, {
        "checkpoints": checkpoints.stats.to_dict() if checkpoints is not None else None,
        "profile": collector.stats_payload() if collector is not None else None,
    }


def _worker_main(
    worker_id,
    algorithms_class,
    config,
    options,
    specs,
    result_queue,
    abort_event,
    shared_descriptor,
):
    """Run one shard in a worker process and forward its messages.

    ``algorithms_class`` is the coordinator's algorithms class, so a
    technique registered on a subclass runs here too; ``options`` is the
    coordinator's :class:`~repro.core.coordinator.RunOptions`.

    ``shared_descriptor`` names the coordinator's one-time shared-state
    publication (:mod:`repro.core.sharedstate`): a shared-memory
    segment, or the same content inline when shared memory is off.  The
    worker attaches it for the reference trace, the golden probe
    snapshots (read zero-copy) and the armed cycle-0 image that seeds
    its checkpoint cache, instead of re-deriving them.  The whole setup
    is timed as ``phase.worker_startup``.  The worker keeps a local
    :class:`~repro.core.telemetry.Telemetry` and ships its registry at
    the end; persistence stays with the single-writer coordinator.
    """
    shared_view = None
    try:
        import repro  # noqa: F401  (registers built-in targets under spawn)

        from .plugins import create_target
        from .triggers import ReferenceTrace

        tele = Telemetry(options.telemetry)
        sampler = None
        if options.resources is not None:
            sampler = ResourceSampler(options.resources, worker=worker_id)
        with tele.time("phase.worker_startup"):
            target = create_target(config.target)
            target.set_fast_path(options.fast)
            algorithms = algorithms_class(target, db=None)
            shared_view = sharedstate.SharedStateView.attach(shared_descriptor)
            meta = shared_view.meta
            trace = ReferenceTrace.from_payload(meta["trace"])
            probes = None
            if meta["golden"] is not None:
                probes = ProbeSession.create(
                    target,
                    None,
                    config.termination,
                    options.probes,
                    golden=GoldenSnapshots.from_shared(meta["golden"], shared_view),
                )
            cache = None
            if options.checkpoints:
                cache = CheckpointCache(options.checkpoint_capacity)
                # The coordinator's armed cycle-0 image: every
                # reset-and-run preamble becomes one restore instead.
                cache.save(0, meta["initial"])
        if sampler is not None:
            sampler.sample("worker_startup")
        for message in shard_loop(
            algorithms,
            config,
            trace,
            specs,
            worker_id,
            abort_event.is_set,
            telemetry=tele,
            probes=probes,
            checkpoints=cache,
            sampler=sampler,
            profile=options.profile,
        ):
            result_queue.put(message)
        if sampler is not None:
            sampler.sample("shard_end")
            if tele.enabled:
                sampler.fold_into(tele.metrics)
            if sampler.pending:
                result_queue.put(("resources", worker_id, sampler.drain()))
        if tele.enabled:
            fold_engine_stats(tele.metrics, target)
            result_queue.put(("metrics", worker_id, tele.metrics.snapshot()))
    except BaseException:
        # BaseException, not Exception: a worker killed mid-chunk (e.g.
        # KeyboardInterrupt reaching the child) must still report before
        # the unconditional "done" below, or the coordinator would read
        # the early "done" as a clean, complete shard.
        logger.exception("campaign worker %d crashed while running its shard", worker_id)
        result_queue.put(("error", worker_id, traceback.format_exc()))
    finally:
        if shared_view is not None:
            shared_view.close()
        result_queue.put(("done", worker_id, None))


def run_in_pool(algorithms, config, options, trace, probes, specs, stop, telemetry):
    """The process-pool executor: publish the worker-startup state,
    shard ``specs`` round-robin over ``options.workers`` processes, and
    yield their messages until every worker is done.  A worker that
    dies without reporting yields an ``error`` after a grace period;
    ``stop()`` turning true stops the workers at their next experiment.
    Closing the generator joins every worker and releases the
    shared-memory segment."""
    # Everything a worker needs on startup, derived exactly once: the
    # reference trace, the golden probe snapshots (chain images as
    # packed buffers), and — under checkpointing — the armed fault-free
    # initial image that seeds each worker's cache.
    meta: dict = {"trace": trace.to_payload(), "golden": None, "initial": None}
    buffers: dict[str, bytes] = {}
    if probes is not None:
        meta["golden"], buffers = probes.golden.to_shared()
    if options.checkpoints:
        with telemetry.time("phase.initial_image"):
            algorithms._prepare_target(config)
            algorithms.target.run_workload()
            meta["initial"] = algorithms.target.save_state()
    context = _start_context()
    result_queue = context.Queue()
    abort_event = context.Event()
    handle = sharedstate.publish(meta, buffers) if options.shared_state else None
    descriptor = (
        handle.descriptor
        if handle is not None
        else sharedstate.inline_descriptor(meta, buffers)
    )
    count = min(options.workers, len(specs))
    # Round-robin sharding keeps the shards balanced even when
    # experiment cost correlates with plan position.
    shards = [specs[start::count] for start in range(count)]
    processes = []
    try:
        for worker_id, shard in enumerate(shards):
            process = context.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    type(algorithms),
                    config,
                    options,
                    shard,
                    result_queue,
                    abort_event,
                    descriptor,
                ),
                daemon=True,
            )
            process.start()
            processes.append(process)
            yield "started", worker_id, len(shard)
        live = set(range(count))
        dead_polls = dict.fromkeys(live, 0)
        while live:
            if stop():
                abort_event.set()
            try:
                message = result_queue.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                for worker_id in list(live):
                    process = processes[worker_id]
                    if process.is_alive():
                        continue
                    # A cleanly exiting worker always sends "done"
                    # first; give the queue feeder a grace period
                    # before declaring the worker crashed.
                    dead_polls[worker_id] += 1
                    if dead_polls[worker_id] >= _DEAD_WORKER_GRACE_POLLS:
                        live.discard(worker_id)
                        yield (
                            "error",
                            worker_id,
                            f"died without reporting (exit code {process.exitcode})",
                        )
                continue
            if message[0] == "done":
                live.discard(message[1])
            yield message
    finally:
        abort_event.set()
        for process in processes:
            process.join(timeout=10)
            if process.is_alive():
                process.terminate()
                process.join()
        result_queue.close()
        if handle is not None:
            handle.close()
