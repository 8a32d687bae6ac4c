"""The campaign coordinator: one preparation, one ingest path, one finish.

Every campaign run, at any worker count, goes through
:class:`Coordinator`:

1. **Prepare** once: the resume set, the reference run, the plan, the
   golden probe pass, liveness pruning with its up-front rows, the
   checkpoint sort, the ``campaign_planned`` and pruned-experiment
   events, and status ``running``.
2. **Ingest** one stream of ``(kind, worker, payload)`` messages from an
   executor (:mod:`repro.core.parallel`): spot-check verification,
   64-row batches into the database, span records to the telemetry
   JSONL sink, and experiment events released in plan order.
3. **Finish**: abort and failure status, a final flush that logs a lost
   batch instead of swallowing it, the telemetry snapshot, and the
   :class:`CampaignResult`.

The coordinator is the single writer: only it touches the database and
the event sinks.  The executor producing the stream is its only
worker-count-dependent choice, and the logged rows do not depend on it.
"""

from __future__ import annotations

import logging
import time
from contextlib import closing
from dataclasses import dataclass

from ..db import DatabaseError, ProbeRecord, ResourceSampleRecord, SpanRecord
from .campaign import CampaignConfig, PlanGenerator
from .checkpoint import (
    DEFAULT_CHECKPOINT_CAPACITY,
    CheckpointCache,
    CheckpointStats,
    sort_plan_by_first_injection,
)
from .liveness import PruneConfig, build_prune_plan, liveness_map
from .parallel import WorkerFailure, fold_engine_stats, run_in_pool, shard_loop
from .probes import ProbeConfig, ProbeSession
from .profiling import merge_profile_stats, profile_summary
from .resources import COORDINATOR_WORKER, ResourceConfig, ResourceSampler
from .telemetry import MODE_OFF

logger = logging.getLogger(__name__)

#: Experiment rows per database batch.
BATCH_ROWS = 64


@dataclass(slots=True)
class CampaignResult:
    """Summary returned by a campaign run (details live in the DB)."""

    campaign_name: str
    experiments_run: int
    experiments_planned: int
    aborted: bool
    elapsed_seconds: float
    #: Checkpoint-cache counters (saves/restores/misses/evictions),
    #: summed over every executor, when the run used checkpointing;
    #: ``None`` otherwise.
    checkpoint_stats: dict | None = None
    #: Final :class:`~repro.core.telemetry.MetricsRegistry` snapshot when
    #: the run was telemetered; ``None`` otherwise.
    telemetry: dict | None = None
    #: Liveness-pruning summary (planned/pruned/skipped/spot-check
    #: counts and divergences) when the run used ``--prune``; ``None``
    #: otherwise.
    prune: dict | None = None
    #: Aggregated cProfile hotspot summary when the run used
    #: ``--profile``; ``None`` otherwise.
    profile: dict | None = None
    #: Number of resource samples persisted when the run used
    #: ``--resources``; ``None`` otherwise.
    resource_samples: int | None = None


@dataclass(frozen=True)
class RunOptions:
    """One campaign run's options, resolved once by
    :meth:`~repro.core.algorithms.FaultInjectionAlgorithms.run_campaign`
    and shipped whole to worker processes.  Everything here pickles;
    the live sinks (telemetry handle, event bus) stay with the
    coordinator."""

    resume: bool = False
    workers: int = 1
    #: Already ``False`` on targets without checkpoint support.
    checkpoints: bool = False
    checkpoint_capacity: int = DEFAULT_CHECKPOINT_CAPACITY
    fast: bool = True
    shared_state: bool = True
    #: Telemetry mode; each worker records into a local handle of it.
    telemetry: str = MODE_OFF
    probes: ProbeConfig | None = None
    prune: PruneConfig | None = None
    resources: ResourceConfig | None = None
    profile: bool = False


class Coordinator:
    """Runs one campaign: prepare, ingest the executor's messages,
    finish.  Entered through ``FaultInjectionAlgorithms.run_campaign``,
    which resolves the :class:`RunOptions` and owns the sinks."""

    def __init__(self, algorithms, config: CampaignConfig, options: RunOptions,
                 telemetry, events) -> None:
        self.algorithms = algorithms
        self.db = algorithms.db
        self.progress = algorithms.progress
        self.config = config
        self.options = options
        self.tele = telemetry
        self.bus = events
        self.sampler: ResourceSampler | None = None
        self.probes: ProbeSession | None = None
        self.prune_plan = None
        self.trace = None
        self.remaining: list = []
        self.workers = 0
        self.completed = 0
        self.aborted = False
        self.failures: list[str] = []
        self.checkpoint_stats: dict | None = None
        self.profiles: list[dict] = []
        self.resource_count = 0
        self.pending: list = []
        self.pending_spans: list[SpanRecord] = []
        self.pending_probes: list[ProbeRecord] = []
        self.pending_resources: list[ResourceSampleRecord] = []
        # Executors finish experiments in wall-clock order, but the
        # event stream must not depend on the worker count: events
        # buffer by plan position and release as an in-order prefix.
        self._event_order: dict[str, int] = {}
        self._event_buffer: dict[int, tuple] = {}
        self._event_next = 0
        self._event_released = 0

    # ------------------------------------------------------------------
    def run(self) -> CampaignResult:
        self._prepare()
        failed = False
        try:
            with closing(self._messages()) as messages:
                for kind, worker, payload in messages:
                    self._ingest(kind, worker, payload)
            if (
                not self.failures
                and not self.progress.abort_requested
                and self.completed < len(self.remaining)
            ):
                # Every worker said "done" yet results are missing: a
                # crash slipped past the per-worker error reporting.
                # Never let that pass as a clean exit.
                self.failures.append(
                    f"workers drained cleanly but only {self.completed} of "
                    f"{len(self.remaining)} sharded experiments reported results"
                )
        except BaseException:
            failed = True
            raise
        finally:
            self._finish(failed)
        if self.failures:
            raise WorkerFailure(
                f"campaign {self.config.name!r} aborted; " + "; ".join(self.failures)
            )
        return self._result()

    def _stop(self) -> bool:
        """Whether executors should stop at their next experiment."""
        return self.progress.abort_requested or bool(self.failures)

    def _sample(self, phase: str) -> None:
        if self.sampler is not None:
            self.sampler.sample(phase)

    # ------------------------------------------------------------------
    # Prepare
    # ------------------------------------------------------------------
    def _prepare(self) -> None:
        algorithms, config, options = self.algorithms, self.config, self.options
        db, tele, bus = self.db, self.tele, self.bus
        if options.resources is not None:
            # The in-process executor shares this sampler; with a pool
            # it describes the coordinator process alone.
            self.sampler = ResourceSampler(
                options.resources,
                worker=0 if options.workers == 1 else COORDINATOR_WORKER,
            )
        if options.resume:
            already_logged = {
                record.experiment_name for record in db.iter_experiments(config.name)
            }
        else:
            # A fresh run of a campaign replaces its previously logged
            # results (re-runs with other parameters belong in a new or
            # merged campaign).
            already_logged = set()
            db.delete_campaign_experiments(config.name)
        with tele.time("phase.reference"):
            trace = self.trace = algorithms.make_reference_run(config)
        self._sample("reference")
        space = algorithms.target.location_space()
        with tele.time("phase.plan"):
            plan = PlanGenerator(config, space, trace).generate()
        self._sample("plan")
        if options.probes is not None:
            # One extra fault-free pass captures the golden snapshots
            # every experiment's probes diff against, in every shard.
            with tele.time("phase.golden"):
                self.probes = ProbeSession.create(
                    algorithms.target,
                    lambda: algorithms._prepare_target(config, faulty_environment=False),
                    config.termination,
                    options.probes,
                )
                # The golden pass also records per-element liveness —
                # the same summary the pruning classifier reasons from.
                self.probes.golden.liveness = liveness_map(trace)
            self._sample("golden")
        remaining = [spec for spec in plan if spec.name not in already_logged]
        # Planned experiments only: the logged reference run is not one.
        logged = len(plan) - len(remaining)
        prune_plan = None
        if options.prune is not None:
            with tele.time("phase.prune"):
                prune_plan = self.prune_plan = build_prune_plan(
                    config,
                    trace,
                    space,
                    remaining,
                    options.prune,
                    algorithms._reference_record,
                )
                remaining = prune_plan.to_run
                # Synthesised rows of skipped experiments are persisted
                # up front; spot-checked ones wait for their simulation
                # to confirm the prediction.
                upfront = prune_plan.upfront_records()
                for start in range(0, len(upfront), 256):
                    db.save_experiments(upfront[start : start + 256])
            logger.info(
                "campaign %r: pruned %d/%d experiments (%d spot-checks)%s",
                config.name,
                len(prune_plan.pruned_specs),
                prune_plan.planned,
                len(prune_plan.spot_checks),
                f" — {prune_plan.disabled_reason}" if prune_plan.disabled_reason else "",
            )
            if tele.enabled:
                tele.metrics.inc("prune.pruned", len(prune_plan.pruned_specs))
                tele.metrics.inc("prune.skipped", prune_plan.skipped)
                tele.metrics.inc("prune.spot_checks", len(prune_plan.spot_checks))
        if options.checkpoints:
            # First-injection order makes the breakpoint sequence
            # monotone, so every checkpoint taken is at or before all
            # later experiments' first breakpoints; sorting before the
            # round-robin sharding keeps every shard in that order too.
            # Only DB insertion order changes (rows are keyed by name).
            remaining = sort_plan_by_first_injection(remaining, trace)
            self.checkpoint_stats = CheckpointStats().to_dict()
        self.remaining = remaining
        self._event_order = {spec.name: index for index, spec in enumerate(remaining)}
        # The shard count: 0 for an empty plan, at any worker count.
        workers = self.workers = min(options.workers, len(remaining))
        if tele.enabled:
            tele.metrics.set_gauge("workers", workers)
        if bus.enabled:
            bus.emit(
                "campaign_planned",
                campaign=config.name,
                technique=config.technique,
                workload=config.workload,
                planned=len(plan),
                already_logged=logged,
                pruned=len(prune_plan.pruned_specs) if prune_plan is not None else 0,
                to_run=len(remaining),
                workers=workers,
                checkpoints=options.checkpoints,
            )
            if prune_plan is not None:
                # Skipped experiments never run: their events carry the
                # provenance flag and no run-progress counter.
                for record in prune_plan.upfront_records():
                    bus.emit(
                        "experiment_finished",
                        campaign=config.name,
                        experiment=record.experiment_name,
                        outcome=record.state_vector["termination"]["outcome"],
                        completed=None,
                        total=len(remaining),
                        elapsed_seconds=None,
                        rate=None,
                        eta_seconds=None,
                        pruned=True,
                        spot_check=False,
                        worker=0,
                    )
        logger.info(
            "campaign %r: %d experiments to run (%d already logged) on %d worker(s)%s",
            config.name,
            len(remaining),
            logged,
            workers,
            ", checkpointing" if options.checkpoints else "",
        )
        self.progress.start(config.name, len(remaining))
        self._set_status("running")

    def _set_status(self, status: str) -> None:
        """A campaign status transition: the ``CampaignData`` row, then
        its lifecycle event — ``campaign_started`` for ``running``,
        ``campaign_finished`` or ``campaign_aborted`` for the end."""
        name = self.config.name
        self.db.set_campaign_status(name, status)
        if not self.bus.enabled:
            return
        if status == "running":
            self.bus.emit(
                "campaign_started",
                campaign=name,
                total=len(self.remaining),
                workers=self.workers,
            )
            return
        self.bus.emit(
            f"campaign_{'finished' if status == 'completed' else 'aborted'}",
            campaign=name,
            completed=self.completed,
            total=len(self.remaining),
            elapsed_seconds=round(self.progress.elapsed_seconds, 6),
        )

    def _messages(self):
        """The executor's message stream: the shard loop in this
        process for one worker, a process pool otherwise."""
        options = self.options
        if options.workers == 1:
            return shard_loop(
                self.algorithms,
                self.config,
                self.trace,
                self.remaining,
                0,
                self._stop,
                telemetry=self.tele,
                probes=self.probes,
                checkpoints=(
                    CheckpointCache(options.checkpoint_capacity)
                    if options.checkpoints
                    else None
                ),
                sampler=self.sampler,
                profile=options.profile,
            )
        return run_in_pool(
            self.algorithms,
            self.config,
            options,
            self.trace,
            self.probes,
            self.remaining,
            self._stop,
            self.tele,
        )

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _ingest(self, kind: str, worker: int, payload) -> None:
        bus = self.bus
        name = self.config.name
        if kind == "result":
            record = payload
            prune_plan = self.prune_plan
            spot_checked = (
                prune_plan is not None and record.experiment_name in prune_plan.spot_checks
            )
            if spot_checked:
                # Hard-fails with PruneDivergence on mismatch; the
                # confirmed synthesised row (pruned flag set) is what
                # gets logged.
                record = prune_plan.verify_spot_check(record.experiment_name, record)
            self.pending.append(record)
            if len(self.pending) >= BATCH_ROWS:
                self._flush()
            self.completed += 1
            progress_event = self.progress.experiment_done(
                record.experiment_name, record.state_vector["termination"]["outcome"]
            )
            if bus.enabled:
                self._event_buffer[self._event_order[record.experiment_name]] = (
                    progress_event, record.pruned, spot_checked, worker,
                )
                while self._event_next in self._event_buffer:
                    self._release_event(self._event_buffer.pop(self._event_next))
                    self._event_next += 1
        elif kind == "spans":
            for span in payload:
                # Lane annotation for the trace export.
                span.setdefault("worker", worker)
            self.tele.write_spans(payload)
            if bus.enabled:
                # Span events reuse the telemetry record verbatim: the
                # stream and the ExperimentSpan table speak one dialect.
                for span in payload:
                    bus.emit("span", campaign=name, worker=span["worker"], span=span)
            self.pending_spans.extend(
                SpanRecord(experiment_name=span["experiment"], campaign_name=name, span=span)
                for span in payload
            )
        elif kind == "probes":
            self.pending_probes.extend(
                ProbeRecord(experiment_name=probe["experiment"], campaign_name=name, probe=probe)
                for probe in payload
            )
        elif kind == "resources":
            self._ingest_samples(payload)
        elif kind == "shard_end":
            if payload["checkpoints"] is not None:
                for key, value in payload["checkpoints"].items():
                    self.checkpoint_stats[key] += value
            if payload["profile"] is not None:
                self.profiles.append(payload["profile"])
        elif kind == "metrics":
            self.tele.metrics.merge(payload)
        elif kind == "started":
            if bus.enabled:
                bus.emit("worker_started", campaign=name, worker=worker, experiments=payload)
        elif kind == "error":
            logger.error("worker %d failed:\n%s", worker, payload)
            self.failures.append(f"worker {worker} failed:\n{payload}")
            if bus.enabled:
                bus.emit("worker_failed", campaign=name, worker=worker)
        elif kind == "done":
            if bus.enabled:
                bus.emit("worker_done", campaign=name, worker=worker)

    def _release_event(self, entry: tuple) -> None:
        progress_event, pruned, spot_check, worker = entry
        self._event_released += 1
        self.bus.experiment_finished(
            progress_event,
            pruned=pruned,
            spot_check=spot_check,
            worker=worker,
            completed=self._event_released,
        )

    def _ingest_samples(self, samples: list[dict]) -> None:
        """Queue resource samples for the next flush, emitting their
        events on arrival — resource timelines are wall-clock
        observations with no plan order to restore."""
        self.resource_count += len(samples)
        name = self.config.name
        if self.bus.enabled:
            for sample in samples:
                self.bus.emit(
                    "resource_sample", campaign=name, worker=sample["worker"], sample=sample
                )
        self.pending_resources.extend(
            ResourceSampleRecord(campaign_name=name, sample=sample, worker=sample["worker"])
            for sample in samples
        )

    def _flush(self) -> None:
        """Write the batched rows, span records, probe summaries and
        resource samples, timing the write when telemetry is on."""
        if not (
            self.pending or self.pending_spans or self.pending_probes
            or self.pending_resources
        ):
            return
        db = self.db
        started = time.perf_counter()
        if self.pending:
            db.save_experiments(self.pending)
        if self.pending_spans:
            db.save_spans(self.pending_spans)
        if self.pending_probes:
            db.save_probes(self.pending_probes)
        if self.pending_resources:
            db.save_resource_samples(self.pending_resources)
        if self.tele.enabled:
            elapsed = time.perf_counter() - started
            metrics = self.tele.metrics
            metrics.add_time("phase.db_write", elapsed)
            metrics.observe("db.batch_seconds", elapsed)
            metrics.inc("db.rows", len(self.pending))
            metrics.inc("db.batches")
        self.pending = []
        self.pending_spans = []
        self.pending_probes = []
        self.pending_resources = []

    # ------------------------------------------------------------------
    # Finish
    # ------------------------------------------------------------------
    def _finish(self, failed: bool) -> None:
        """Flush what is pending and set the final status — also after
        a crash, so no batched row is lost and the campaign never stays
        ``running``."""
        config, progress = self.config, self.progress
        self._sample("finish")
        if self.sampler is not None:
            self._ingest_samples(self.sampler.drain())
        flush_error = None
        try:
            self._flush()
        except Exception as exc:
            # Always leave a trace of the lost batch; re-raise below
            # only when it would not mask the original failure.
            logger.exception(
                "campaign %r: failed to flush %d pending record(s)",
                config.name,
                len(self.pending) + len(self.pending_spans)
                + len(self.pending_probes) + len(self.pending_resources),
            )
            flush_error = exc
        progress.finish()
        self.aborted = progress.abort_requested
        status = (
            "aborted"
            if self.aborted or failed or self.failures or flush_error
            else "completed"
        )
        logger.info(
            "campaign %r %s: %d/%d experiments in %.1fs",
            config.name,
            status,
            self.completed,
            len(self.remaining),
            progress.elapsed_seconds,
        )
        if self.bus.enabled:
            # After an abort some buffered events never see their
            # in-order predecessors arrive; release what is there in
            # plan order so the recording accounts for every row.
            for index in sorted(self._event_buffer):
                self._release_event(self._event_buffer.pop(index))
        self._set_status(status)
        if flush_error is not None and not failed:
            raise flush_error

    def _result(self) -> CampaignResult:
        tele = self.tele
        profile = None
        if self.profiles:
            profile = profile_summary(
                merge_profile_stats(self.profiles), workers=len(self.profiles)
            )
        elapsed = self.progress.elapsed_seconds
        snapshot = None
        if tele.enabled:
            metrics = tele.metrics
            if self.sampler is not None:
                self.sampler.fold_into(metrics)
            fold_engine_stats(metrics, self.algorithms.target)
            for key, value in (self.checkpoint_stats or {}).items():
                metrics.inc(f"checkpoint.cache.{key}", value)
            total_elapsed = elapsed
            if self.options.resume:
                # A resumed run adds to what the earlier runs recorded.
                try:
                    stored = self.db.load_campaign_telemetry(self.config.name)
                except DatabaseError:
                    stored = {}  # the earlier runs had telemetry off
                metrics.merge(stored)
                total_elapsed += stored.get("gauges", {}).get("elapsed_seconds", 0.0)
            metrics.set_gauge("elapsed_seconds", total_elapsed)
            snapshot = tele.write_snapshot()
            if profile is not None:
                # The hotspot summary rides along in the snapshot.
                snapshot["profile"] = profile
            self.db.save_campaign_telemetry(self.config.name, snapshot)
        return CampaignResult(
            campaign_name=self.config.name,
            experiments_run=self.completed,
            experiments_planned=len(self.remaining),
            aborted=self.aborted,
            elapsed_seconds=elapsed,
            checkpoint_stats=self.checkpoint_stats,
            telemetry=snapshot,
            prune=self.prune_plan.report() if self.prune_plan is not None else None,
            profile=profile,
            resource_samples=(
                self.resource_count if self.options.resources is not None else None
            ),
        )
