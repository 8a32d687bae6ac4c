"""Parallel campaign execution: shard the plan across worker processes.

The paper's SCIFI campaigns run thousands of experiments serially
against one Thor board.  Our targets are deterministic pure-Python
simulators, so nothing prevents running experiments on all cores: the
coordinator generates the usual deterministic experiment plan, shards it
round-robin over N ``multiprocessing`` workers, and each worker rebuilds
its own target interface from the plugin registry
(:func:`repro.core.plugins.create_target`), recomputes the reference
trace locally, runs its shard of :class:`ExperimentSpec`\\ s, and streams
:class:`ExperimentRecord` payloads back over a queue.

Design rules:

* **Single writer** — only the coordinator process touches SQLite.
  Workers never open the database; results flow through the queue and
  the coordinator logs them with the existing 64-record batching.
* **Bit-identical results** — every experiment re-initialises the test
  card and derives its randomness from the per-experiment seed already
  in the plan, so the logged rows (ignoring ``createdAt`` and insertion
  order) are the same for any worker count, including the serial loop.
* **Abort drains** — an abort request stops workers at their next
  experiment boundary; the coordinator keeps consuming until every
  worker has drained, flushes pending records, and marks the campaign
  ``aborted``.  Worker failures likewise abort the campaign without
  losing already-streamed records.
"""

from __future__ import annotations

import logging
import multiprocessing
import queue as queue_module
import time
import traceback

from ..db import (
    ExperimentRecord,
    GoofiDatabase,
    ProbeRecord,
    ResourceSampleRecord,
    SpanRecord,
)
from . import sharedstate
from .campaign import CampaignConfig, ExperimentSpec, PlanGenerator
from .checkpoint import CheckpointCache, sort_plan_by_first_injection
from .errors import ConfigurationError, GoofiError
from .liveness import PrunePlan, build_prune_plan, liveness_map
from .probes import GoldenSnapshots, ProbeConfig, ProbeSession, capture_golden_snapshots
from .profiling import ProfileCollector, merge_profile_stats, profile_summary
from .progress import ProgressReporter
from .resources import COORDINATOR_WORKER, ResourceConfig, ResourceSampler
from .telemetry import MODE_OFF, Telemetry

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


def _worker_main(
    worker_id,
    config_dict,
    spec_dicts,
    result_queue,
    abort_event,
    shared_descriptor,
    checkpoints=False,
    checkpoint_capacity=None,
    fast=True,
    telemetry_mode=MODE_OFF,
    resources_payload=None,
    profile=False,
):
    """Run one shard of the plan and stream results back.

    Message protocol (all picklable builtins):

    * ``("result", worker_id, record_fields)`` per finished experiment;
    * ``("spans", worker_id, span_records)`` right after a result, when
      the run is telemetered at span level;
    * ``("probes", worker_id, probe_payloads)`` right after a result,
      when the run is probed;
    * ``("resources", worker_id, sample_records)`` right after a result,
      when the run samples worker resources (``resources_payload`` is a
      :class:`~repro.core.resources.ResourceConfig` dict);
    * ``("metrics", worker_id, registry_snapshot)`` once after the
      shard, when telemetry is on (the coordinator merges it);
    * ``("profile", worker_id, stats_table)`` once after the shard, when
      ``profile`` wrapped the shard loop in :mod:`cProfile` (the
      coordinator aggregates the tables);
    * ``("error", worker_id, traceback_text)`` once on failure;
    * ``("done", worker_id, None)`` always, as the last message.

    With ``checkpoints`` the worker builds its own checkpoint cache —
    snapshots hold live target references and never cross the process
    boundary; each shard of the (coordinator-sorted) plan is itself in
    first-injection order, so per-worker caches stay effective.

    With ``telemetry_mode`` the worker keeps a local
    :class:`~repro.core.telemetry.Telemetry` (never a file or database
    sink — persistence stays with the single-writer coordinator).

    ``shared_descriptor`` names the coordinator's one-time shared-state
    publication (:mod:`repro.core.sharedstate`): a shared-memory
    segment, or the same content inline when shared memory is off.  The
    worker attaches it for the reference trace, golden probe snapshots,
    and fault-free initial image instead of re-deriving them locally:
    no per-worker ``phase.reference`` re-run, golden chain images read
    zero-copy from the shared segment (or from the inline payload), and
    the checkpoint cache starts pre-seeded with the armed cycle-0 image.
    The whole setup is timed as ``phase.worker_startup``.
    """
    shared_view = None
    try:
        import repro  # noqa: F401  (registers built-in targets under spawn)

        from .algorithms import FaultInjectionAlgorithms
        from .plugins import create_target
        from .triggers import ReferenceTrace

        config = CampaignConfig.from_dict(config_dict)
        tele = Telemetry(telemetry_mode)
        sampler = None
        if resources_payload is not None:
            sampler = ResourceSampler(
                ResourceConfig.from_dict(resources_payload), worker=worker_id
            )
        collector = ProfileCollector() if profile else None
        with tele.time("phase.worker_startup"):
            target = create_target(config.target)
            target.set_fast_path(fast)
            algorithms = FaultInjectionAlgorithms(target, db=None)
            algorithms.telemetry = tele
            if checkpoints and target.supports_checkpoints:
                algorithms.checkpoints = (
                    CheckpointCache(checkpoint_capacity)
                    if checkpoint_capacity
                    else CheckpointCache()
                )
            shared_view = sharedstate.SharedStateView.attach(shared_descriptor)
            meta = shared_view.meta
            trace = ReferenceTrace.from_payload(meta["trace"])
            probes = None
            probes_meta = meta.get("probes")
            if probes_meta is not None:
                probes = ProbeSession.create(
                    target,
                    lambda: algorithms._prepare_target(
                        config, faulty_environment=False
                    ),
                    config.termination,
                    ProbeConfig.from_dict(probes_meta["config"]),
                    golden=GoldenSnapshots.from_shared(
                        probes_meta["golden"], shared_view
                    ),
                )
                algorithms.probes = probes
            initial = meta.get("initial")
            if initial is not None and algorithms.checkpoints is not None:
                # The coordinator's armed cycle-0 image: every
                # experiment's reset-and-run preamble becomes one
                # buffer-copy restore instead.
                algorithms.checkpoints.save(0, initial)
            run_experiment = algorithms.experiment_runner(config.technique)
        if sampler is not None:
            sampler.sample("worker_startup")
        if collector is not None:
            collector.start()
        for spec_dict in spec_dicts:
            if abort_event.is_set():
                break
            spec = ExperimentSpec.from_dict(spec_dict)
            record = run_experiment(config, spec, trace)
            result_queue.put(
                (
                    "result",
                    worker_id,
                    {
                        "experiment_name": record.experiment_name,
                        "campaign_name": record.campaign_name,
                        "experiment_data": record.experiment_data,
                        "state_vector": record.state_vector,
                    },
                )
            )
            if tele.spans_enabled:
                result_queue.put(("spans", worker_id, tele.drain_spans()))
            if probes is not None and probes.has_pending:
                result_queue.put(("probes", worker_id, probes.drain()))
            if sampler is not None:
                sampler.maybe_sample()
                if sampler.pending:
                    result_queue.put(("resources", worker_id, sampler.drain()))
        if collector is not None:
            collector.stop()
        if sampler is not None:
            sampler.sample("shard_end")
            if tele.enabled:
                sampler.fold_into(tele.metrics)
            if sampler.pending:
                result_queue.put(("resources", worker_id, sampler.drain()))
        if tele.enabled:
            for key, value in target.execution_stats().items():
                if key == "cycles":
                    continue  # point-in-time, not a counter
                tele.metrics.inc(f"engine.{key}", value)
            result_queue.put(("metrics", worker_id, tele.metrics.snapshot()))
        if collector is not None:
            result_queue.put(("profile", worker_id, collector.stats_payload()))
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


class ParallelCampaignRunner:
    """Coordinator for a multi-process campaign run.

    Wraps a :class:`~repro.core.algorithms.FaultInjectionAlgorithms`
    instance (whose database connection and progress reporter it
    reuses); entered through
    ``FaultInjectionAlgorithms.run_campaign(..., workers=N)`` or
    directly::

        runner = ParallelCampaignRunner(session.algorithms, workers=4)
        result = runner.run(config)
    """

    def __init__(self, algorithms, workers: int, batch_size: int = 64) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        if algorithms.db is None:
            raise ConfigurationError(
                "the parallel coordinator needs a database connection"
            )
        self.algorithms = algorithms
        self.workers = workers
        self.batch_size = batch_size

    # ------------------------------------------------------------------
    def run(
        self,
        config: CampaignConfig,
        resume: bool = False,
        checkpoints: bool = False,
        fast: bool = True,
        shared_state: bool = True,
    ):
        """Mirror of the serial ``_campaign_loop``, with the experiment
        bodies fanned out to worker processes.  ``checkpoints`` sorts
        the plan by first-injection cycle before sharding and has each
        worker keep its own checkpoint cache; ``fast`` selects the
        execution engine in every worker (results are bit-identical
        either way).

        ``shared_state`` publishes the worker-startup state — reference
        trace, golden probe snapshots, armed initial image — once via
        :mod:`repro.core.sharedstate` for zero-copy attachment; when
        False (or when shared memory is unavailable) the same content
        ships inline through the worker arguments instead.  Rows are
        bit-identical either way."""
        from .algorithms import CampaignResult, emit_pruned_events

        algorithms = self.algorithms
        db: GoofiDatabase = algorithms.db
        progress: ProgressReporter = algorithms.progress
        tele = algorithms.telemetry
        bus = algorithms.events
        sampler: ResourceSampler | None = None
        if algorithms.resource_config is not None:
            # The coordinator samples its own process too: its phases
            # (reference, plan, golden) run before any worker exists.
            sampler = ResourceSampler(
                algorithms.resource_config, worker=COORDINATOR_WORKER
            )
        if resume:
            already_logged = {
                record.experiment_name for record in db.iter_experiments(config.name)
            }
        else:
            already_logged = set()
            db.delete_campaign_experiments(config.name)
        # The reference run stays in the coordinator: it is the one row
        # the workers must not race to write.
        with tele.time("phase.reference"):
            trace = algorithms.make_reference_run(config)
        if sampler is not None:
            sampler.sample("reference")
        space = algorithms.target.location_space()
        with tele.time("phase.plan"):
            plan = PlanGenerator(config, space, trace).generate()
        if sampler is not None:
            sampler.sample("plan")
        remaining = [spec for spec in plan if spec.name not in already_logged]
        prune_plan: PrunePlan | None = None
        if algorithms.prune_config is not None:
            # Classification and row synthesis stay in the coordinator
            # (it owns the trace, the plan, and the single DB writer);
            # workers only ever see the specs left to simulate.
            with tele.time("phase.prune"):
                prune_plan = build_prune_plan(
                    config,
                    trace,
                    space,
                    remaining,
                    algorithms.prune_config,
                    algorithms._reference_record,
                )
                remaining = prune_plan.to_run
                upfront = prune_plan.upfront_records()
                for start in range(0, len(upfront), 256):
                    db.save_experiments(upfront[start : start + 256])
            logger.info(
                "campaign %r: pruned %d/%d experiments (%d spot-checks)%s",
                config.name,
                len(prune_plan.pruned_specs),
                prune_plan.planned,
                len(prune_plan.spot_checks),
                f" — {prune_plan.disabled_reason}"
                if prune_plan.disabled_reason
                else "",
            )
            if tele.enabled:
                tele.metrics.inc("prune.pruned", len(prune_plan.pruned_specs))
                tele.metrics.inc("prune.skipped", prune_plan.skipped)
                tele.metrics.inc("prune.spot_checks", len(prune_plan.spot_checks))
        golden = None
        if algorithms.probe_config is not None:
            # The golden snapshots are captured once, here, and shared
            # with every worker: experiments in all shards diff against
            # the same fault-free images.
            with tele.time("phase.golden"):
                golden = capture_golden_snapshots(
                    algorithms.target,
                    lambda: algorithms._prepare_target(config, faulty_environment=False),
                    config.termination,
                    algorithms.probe_config,
                )
            # The golden pass also records per-element liveness — the
            # summary rides along in the shared metadata.
            golden.liveness = liveness_map(trace)
            if sampler is not None:
                sampler.sample("golden")
        use_checkpoints = checkpoints and algorithms.target.supports_checkpoints
        if use_checkpoints:
            # Sorting before the round-robin sharding keeps every shard
            # in first-injection order too.
            remaining = sort_plan_by_first_injection(remaining, trace)
        if bus.enabled:
            # Same deterministic prefix as the serial loop: the
            # campaign_planned record and the pruned-experiment events
            # are emitted by the coordinator before any worker starts,
            # so recorded streams agree for every worker count.
            bus.emit(
                "campaign_planned",
                campaign=config.name,
                technique=config.technique,
                workload=config.workload,
                planned=len(plan),
                already_logged=len(already_logged),
                pruned=(
                    len(prune_plan.pruned_specs) if prune_plan is not None else 0
                ),
                to_run=len(remaining),
                workers=self.workers,
                checkpoints=use_checkpoints,
            )
            if prune_plan is not None:
                emit_pruned_events(bus, config.name, prune_plan, len(remaining))
        progress.start(config.name, len(remaining))
        db.set_campaign_status(config.name, "running")
        if not remaining:
            progress.finish()
            db.set_campaign_status(config.name, "completed")
            if bus.enabled:
                bus.emit(
                    "campaign_started", campaign=config.name, total=0, workers=0
                )
                bus.emit(
                    "campaign_finished",
                    campaign=config.name,
                    completed=0,
                    total=0,
                    elapsed_seconds=round(progress.elapsed_seconds, 6),
                )
            if sampler is not None:
                sampler.sample("finish")
                samples = sampler.drain()
                if bus.enabled:
                    for sample in samples:
                        bus.emit(
                            "resource_sample",
                            campaign=config.name,
                            worker=sample["worker"],
                            sample=sample,
                        )
                db.save_resource_samples(
                    [
                        ResourceSampleRecord(
                            campaign_name=config.name,
                            sample=sample,
                            worker=sample["worker"],
                        )
                        for sample in samples
                    ]
                )
                if tele.enabled:
                    sampler.fold_into(tele.metrics)
            return CampaignResult(
                campaign_name=config.name,
                experiments_run=0,
                experiments_planned=0,
                aborted=False,
                elapsed_seconds=progress.elapsed_seconds,
                telemetry=(
                    algorithms._finish_telemetry(config.name)
                    if tele.enabled
                    else None
                ),
                prune=prune_plan.report() if prune_plan is not None else None,
                resource_samples=(
                    sampler.samples_taken if sampler is not None else None
                ),
            )

        # Everything a worker needs on startup, derived exactly once:
        # the reference trace, the golden probe snapshots (chain images
        # as packed buffers), and — under checkpointing — the armed
        # fault-free initial image that seeds each worker's cache.
        shared_meta: dict = {"trace": trace.to_payload(), "probes": None, "initial": None}
        shared_buffers: dict[str, bytes] = {}
        if golden is not None:
            golden_meta, shared_buffers = golden.to_shared()
            shared_meta["probes"] = {
                "config": algorithms.probe_config.to_dict(),
                "golden": golden_meta,
            }
        if use_checkpoints:
            with tele.time("phase.initial_image"):
                algorithms._prepare_target(config)
                algorithms.target.run_workload()
                shared_meta["initial"] = algorithms.target.save_state()
        shared_handle = None
        if shared_state:
            shared_handle = sharedstate.publish(shared_meta, shared_buffers)
        shared_descriptor = (
            shared_handle.descriptor
            if shared_handle is not None
            else sharedstate.inline_descriptor(shared_meta, shared_buffers)
        )

        context = _start_context()
        result_queue = context.Queue()
        abort_event = context.Event()
        worker_count = min(self.workers, len(remaining))
        if tele.enabled:
            tele.metrics.set_gauge("workers", worker_count)
        # Round-robin sharding keeps the shards balanced even when
        # experiment cost correlates with plan position.
        shards = [remaining[start::worker_count] for start in range(worker_count)]
        processes = [
            context.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    config.to_dict(),
                    [spec.to_dict() for spec in shard],
                    result_queue,
                    abort_event,
                    shared_descriptor,
                    use_checkpoints,
                    algorithms.checkpoint_capacity,
                    fast,
                    tele.mode,
                    (
                        algorithms.resource_config.to_dict()
                        if algorithms.resource_config is not None
                        else None
                    ),
                    algorithms.profile,
                ),
                daemon=True,
            )
            for worker_id, shard in enumerate(shards)
        ]
        logger.info(
            "campaign %r: sharding %d experiments over %d workers",
            config.name,
            len(remaining),
            worker_count,
        )
        if bus.enabled:
            bus.emit(
                "campaign_started",
                campaign=config.name,
                total=len(remaining),
                workers=worker_count,
            )
        for worker_id, process in enumerate(processes):
            process.start()
            if bus.enabled:
                bus.emit(
                    "worker_started",
                    campaign=config.name,
                    worker=worker_id,
                    experiments=len(shards[worker_id]),
                )

        completed = 0
        aborted = False
        failed = False
        failures: list[str] = []
        pending: list[ExperimentRecord] = []
        pending_spans: list[SpanRecord] = []
        pending_probes: list[ProbeRecord] = []
        pending_resources: list[ResourceSampleRecord] = []
        profile_payloads: list[dict] = []
        resource_count = 0
        live = set(range(worker_count))
        dead_polls = dict.fromkeys(live, 0)

        # Workers finish experiments in wall-clock order, but the event
        # stream must not depend on the worker count: results buffer by
        # their plan position and release as an in-order prefix, so the
        # recorded experiment_finished sequence equals the serial one in
        # every deterministic field.
        event_order = {spec.name: index for index, spec in enumerate(remaining)}
        event_buffer: dict[int, tuple] = {}
        event_next = 0
        event_released = 0

        def release_experiment_events() -> None:
            nonlocal event_next, event_released
            while event_next in event_buffer:
                progress_event, pruned, spot_check, from_worker = (
                    event_buffer.pop(event_next)
                )
                event_released += 1
                bus.experiment_finished(
                    progress_event,
                    pruned=pruned,
                    spot_check=spot_check,
                    worker=from_worker,
                    completed=event_released,
                )
                event_next += 1

        def flush_pending() -> None:
            """Write the batched rows (and any relayed span records,
            probe summaries, and resource samples), timing the write
            when telemetry is on."""
            nonlocal pending, pending_spans, pending_probes, pending_resources
            if not (pending or pending_spans or pending_probes or pending_resources):
                return
            started = time.perf_counter()
            if pending:
                db.save_experiments(pending)
            if pending_spans:
                db.save_spans(pending_spans)
            if pending_probes:
                db.save_probes(pending_probes)
            if pending_resources:
                db.save_resource_samples(pending_resources)
            if tele.enabled:
                elapsed = time.perf_counter() - started
                metrics = tele.metrics
                metrics.add_time("phase.db_write", elapsed)
                metrics.observe("db.batch_seconds", elapsed)
                metrics.inc("db.rows", len(pending))
                metrics.inc("db.batches")
            pending = []
            pending_spans = []
            pending_probes = []
            pending_resources = []

        def ingest_samples(samples: list[dict]) -> None:
            """Queue worker (or coordinator) resource samples for the
            next flush, emitting their events on arrival — resource
            timelines are wall-clock observations, so unlike experiment
            events they have no deterministic plan order to restore."""
            nonlocal resource_count
            resource_count += len(samples)
            if bus.enabled:
                for sample in samples:
                    bus.emit(
                        "resource_sample",
                        campaign=config.name,
                        worker=sample["worker"],
                        sample=sample,
                    )
            pending_resources.extend(
                ResourceSampleRecord(
                    campaign_name=config.name,
                    sample=sample,
                    worker=sample["worker"],
                )
                for sample in samples
            )

        try:
            while live:
                if progress.abort_requested and not abort_event.is_set():
                    aborted = True
                    abort_event.set()
                try:
                    kind, worker_id, payload = result_queue.get(timeout=_POLL_SECONDS)
                except queue_module.Empty:
                    for worker_id in list(live):
                        if processes[worker_id].is_alive():
                            continue
                        # A cleanly exiting worker always sends "done"
                        # first; give the queue feeder a grace period
                        # before declaring the worker crashed.
                        dead_polls[worker_id] += 1
                        if dead_polls[worker_id] >= _DEAD_WORKER_GRACE_POLLS:
                            live.discard(worker_id)
                            exitcode = processes[worker_id].exitcode
                            failures.append(
                                f"worker {worker_id} died without reporting "
                                f"(exit code {exitcode})"
                            )
                            if bus.enabled:
                                bus.emit(
                                    "worker_failed",
                                    campaign=config.name,
                                    worker=worker_id,
                                )
                            abort_event.set()
                    continue
                if kind == "result":
                    record = ExperimentRecord(**payload)
                    spot_checked = (
                        prune_plan is not None
                        and record.experiment_name in prune_plan.spot_checks
                    )
                    if spot_checked:
                        # Hard-fails with PruneDivergence on mismatch;
                        # the confirmed synthesised row (pruned flag
                        # set) is what gets logged.
                        record = prune_plan.verify_spot_check(
                            record.experiment_name, record
                        )
                    pending.append(record)
                    if len(pending) >= self.batch_size:
                        flush_pending()
                    completed += 1
                    progress_event = progress.experiment_done(
                        payload["experiment_name"],
                        payload["state_vector"]["termination"]["outcome"],
                    )
                    if bus.enabled:
                        event_buffer[event_order[record.experiment_name]] = (
                            progress_event,
                            record.pruned,
                            spot_checked,
                            worker_id,
                        )
                        release_experiment_events()
                elif kind == "spans":
                    for span in payload:
                        # Lane annotation for the trace export.
                        span.setdefault("worker", worker_id)
                    tele.write_spans(payload)
                    if bus.enabled:
                        for span in payload:
                            bus.emit(
                                "span",
                                campaign=config.name,
                                worker=span["worker"],
                                span=span,
                            )
                    pending_spans.extend(
                        SpanRecord(
                            experiment_name=span["experiment"],
                            campaign_name=config.name,
                            span=span,
                        )
                        for span in payload
                    )
                elif kind == "probes":
                    pending_probes.extend(
                        ProbeRecord(
                            experiment_name=probe["experiment"],
                            campaign_name=config.name,
                            probe=probe,
                        )
                        for probe in payload
                    )
                elif kind == "resources":
                    ingest_samples(payload)
                elif kind == "metrics":
                    tele.metrics.merge(payload)
                elif kind == "profile":
                    profile_payloads.append(payload)
                elif kind == "error":
                    logger.error("worker %d failed:\n%s", worker_id, payload)
                    failures.append(f"worker {worker_id} failed:\n{payload}")
                    if bus.enabled:
                        bus.emit(
                            "worker_failed", campaign=config.name, worker=worker_id
                        )
                    abort_event.set()
                elif kind == "done":
                    live.discard(worker_id)
                    if bus.enabled:
                        bus.emit(
                            "worker_done", campaign=config.name, worker=worker_id
                        )
            if progress.abort_requested:
                aborted = True
            if not aborted and not failures and completed < len(remaining):
                # Every worker said "done" yet results are missing: a
                # crash slipped past the per-worker error reporting (a
                # worker killed between its last result and its error
                # message).  Never let that pass as a clean exit.
                failures.append(
                    f"workers drained cleanly but only {completed} of "
                    f"{len(remaining)} sharded experiments reported results"
                )
        except BaseException:
            failed = True
            raise
        finally:
            abort_event.set()
            for process in processes:
                process.join(timeout=10)
                if process.is_alive():
                    process.terminate()
                    process.join()
            result_queue.close()
            if shared_handle is not None:
                shared_handle.close()
            if sampler is not None:
                sampler.sample("finish")
                ingest_samples(sampler.drain())
            try:
                flush_pending()
            except Exception:
                # Always leave a trace of the lost batch; re-raise only
                # when it would not mask the original failure.
                logger.exception(
                    "campaign %r: failed to flush %d pending record(s) "
                    "during coordinator cleanup",
                    config.name,
                    len(pending) + len(pending_spans) + len(pending_probes),
                )
                if not failed:
                    raise
            progress.finish()
            db.set_campaign_status(
                config.name,
                "aborted" if (aborted or failed or failures) else "completed",
            )
            if bus.enabled:
                # On an abort some buffered events may never see their
                # in-order predecessors arrive; drain what we have in
                # plan order so the recording still accounts for every
                # logged experiment.
                for index in sorted(event_buffer):
                    progress_event, pruned, spot_check, from_worker = (
                        event_buffer.pop(index)
                    )
                    event_released += 1
                    bus.experiment_finished(
                        progress_event,
                        pruned=pruned,
                        spot_check=spot_check,
                        worker=from_worker,
                        completed=event_released,
                    )
                bus.emit(
                    "campaign_aborted"
                    if (aborted or failed or failures)
                    else "campaign_finished",
                    campaign=config.name,
                    completed=completed,
                    total=len(remaining),
                    elapsed_seconds=round(progress.elapsed_seconds, 6),
                )
        if failures:
            raise WorkerFailure(
                f"parallel campaign {config.name!r} aborted; "
                + "; ".join(failures)
            )
        profile_data = None
        if profile_payloads:
            profile_data = profile_summary(
                merge_profile_stats(profile_payloads),
                workers=len(profile_payloads),
            )
        if sampler is not None and tele.enabled:
            sampler.fold_into(tele.metrics)
        snapshot = (
            algorithms._finish_telemetry(config.name, profile=profile_data)
            if tele.enabled
            else None
        )
        return CampaignResult(
            campaign_name=config.name,
            experiments_run=completed,
            experiments_planned=len(remaining),
            aborted=aborted,
            elapsed_seconds=progress.elapsed_seconds,
            telemetry=snapshot,
            prune=prune_plan.report() if prune_plan is not None else None,
            profile=profile_data,
            resource_samples=(
                resource_count if algorithms.resource_config is not None else None
            ),
        )
