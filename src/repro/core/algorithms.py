"""The fault-injection algorithms (paper Figure 2).

``FaultInjectionAlgorithms`` holds the generic campaign algorithms,
written exclusively against the abstract building blocks of
:class:`repro.core.framework.TargetSystemInterface` — the paper's
central design idea: "By combining different abstract methods we can
define algorithms for fault injection techniques such as SCIFI, SWIFI
or pin level fault injection."

Three techniques are implemented:

``fault_injector_scifi``
    The paper's main algorithm, step for step: read campaign data, make
    a reference run, then per experiment: init test card, load workload,
    write memory, run workload, wait for breakpoint, read scan chain,
    inject fault, write scan chain, wait for termination, read memory,
    read scan chain.
``fault_injector_swifi_preruntime``
    "Faults are injected into the program and data areas of the target
    system before it starts to execute": flip memory-image bits through
    the host link, then run to termination.
``fault_injector_swifi_runtime``
    The future-work runtime SWIFI, realised debugger-style: stop at the
    trigger, corrupt memory or an architecturally visible register, and
    resume.

Each experiment's outcome is logged to the ``LoggedSystemState`` table;
"in normal mode, the system state is logged only when the termination
condition is fulfilled.  In detail mode the system state is logged as
frequently as the target system allows, typically after the execution
of each machine instruction."
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

from ..db import (
    CampaignRecord,
    ExperimentRecord,
    GoofiDatabase,
    ProbeRecord,
    ResourceSampleRecord,
    SpanRecord,
    TargetSystemRecord,
    reference_name,
)
from .campaign import (
    LOGGING_DETAIL,
    TECHNIQUE_PINLEVEL,
    TECHNIQUE_SCIFI,
    TECHNIQUE_SWIFI_PRERUNTIME,
    TECHNIQUE_SWIFI_RUNTIME,
    CampaignConfig,
    ExperimentSpec,
    PlanGenerator,
    PlannedFault,
)
from .checkpoint import (
    DEFAULT_CHECKPOINT_CAPACITY,
    CheckpointCache,
    sort_plan_by_first_injection,
)
from .errors import ConfigurationError, TargetError
from .events import NULL_EVENTS, resolve_events
from .faultmodels import is_transient
from .framework import (
    TargetSystemInterface,
    TerminationInfo,
)
from .liveness import (
    PruneConfig,
    PrunePlan,
    build_prune_plan,
    liveness_map,
    resolve_prune,
)
from .locations import KIND_MEMORY, KIND_SCAN
from .plugins import create_environment, technique_method
from .probes import ProbeConfig, ProbeSession, resolve_probes
from .profiling import ProfileCollector, merge_profile_stats, profile_summary
from .progress import ProgressReporter
from .resources import ResourceConfig, ResourceSampler, resolve_resources
from .telemetry import (
    MODE_METRICS,
    NULL_SPAN,
    NULL_TELEMETRY,
    Telemetry,
    resolve_telemetry,
)
from .triggers import ReferenceTrace

logger = logging.getLogger(__name__)


@dataclass(slots=True)
class CampaignResult:
    """Summary returned by a campaign run (details live in the DB)."""

    campaign_name: str
    experiments_run: int
    experiments_planned: int
    aborted: bool
    elapsed_seconds: float
    #: Checkpoint-cache counters (saves/restores/misses/evictions) when
    #: the run used checkpointing; ``None`` otherwise.
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


def emit_pruned_events(bus, campaign_name: str, prune_plan, total: int) -> None:
    """One ``experiment_finished`` event per experiment the liveness
    classifier skipped (already logged up front from its synthesised
    row).  Shared by the serial loop and the parallel coordinator, so
    streams are identical for any worker count.  Pruned experiments
    never run: their events carry ``pruned: true`` and a ``null``
    run-progress counter."""
    for record in prune_plan.upfront_records():
        bus.emit(
            "experiment_finished",
            campaign=campaign_name,
            experiment=record.experiment_name,
            outcome=record.state_vector["termination"]["outcome"],
            completed=None,
            total=total,
            elapsed_seconds=None,
            rate=None,
            eta_seconds=None,
            pruned=True,
            spot_check=False,
            worker=0,
        )


class FaultInjectionAlgorithms:
    """Generic fault-injection campaign algorithms.

    The constructor takes the three things every algorithm needs: a
    target-system interface, the GOOFI database, and (optionally) a
    progress reporter for the monitoring/pause/end controls.
    """

    #: Technique → experiment-body method.  One entry per registered
    #: technique; the parallel runner and the detail-mode re-run resolve
    #: their per-experiment runner through this table.
    EXPERIMENT_BODIES = {
        TECHNIQUE_SCIFI: "_run_scifi_experiment",
        TECHNIQUE_PINLEVEL: "_run_scifi_experiment",
        TECHNIQUE_SWIFI_PRERUNTIME: "_run_swifi_preruntime_experiment",
        TECHNIQUE_SWIFI_RUNTIME: "_run_swifi_runtime_experiment",
    }

    def __init__(
        self,
        target: TargetSystemInterface,
        db: GoofiDatabase | None,
        progress: ProgressReporter | None = None,
    ) -> None:
        """``db`` may be ``None`` for experiment-only use (the parallel
        campaign runner's worker processes never touch the database —
        campaign management then raises on the missing connection)."""
        self.target = target
        self.db = db
        self.progress = progress or ProgressReporter()
        #: Filled by :meth:`make_reference_run`.
        self.reference_trace: ReferenceTrace | None = None
        #: Active checkpoint cache.  Set for the duration of a
        #: checkpointed campaign (``run_campaign(checkpoints=True)``)
        #: or directly by a parallel worker; the experiment bodies
        #: consult it to skip re-simulating the fault-free prefix.
        self.checkpoints: CheckpointCache | None = None
        #: LRU capacity used when building the cache (one knob, also
        #: shipped to the parallel workers; the CLI exposes it as
        #: ``--checkpoint-capacity``).
        self.checkpoint_capacity: int = DEFAULT_CHECKPOINT_CAPACITY
        #: Active telemetry handle.  ``NULL_TELEMETRY`` (every operation
        #: a shared no-op) unless ``run_campaign(telemetry=...)`` turned
        #: it on or a parallel worker installed a local instance.
        self.telemetry = NULL_TELEMETRY
        #: Active campaign event bus (:mod:`repro.core.events`).
        #: ``NULL_EVENTS`` unless ``run_campaign(events=...)`` turned it
        #: on; parallel workers never carry a live bus — the coordinator
        #: owns the sinks and emits in deterministic plan order.
        self.events = NULL_EVENTS
        #: Requested probe configuration for the current campaign run
        #: (``run_campaign(probes=...)``); ``None`` when probing is off.
        self.probe_config: ProbeConfig | None = None
        #: Active probe session (golden snapshots + pending summaries).
        #: Set for the duration of a probed campaign, or installed
        #: directly by a parallel worker; the experiment bodies route
        #: their execution segments through it when present.
        self.probes: ProbeSession | None = None
        #: Requested liveness-pruning configuration for the current
        #: campaign run (``run_campaign(prune=...)``); ``None`` when
        #: pruning is off.
        self.prune_config: PruneConfig | None = None
        #: Requested resource-sampling configuration for the current
        #: campaign run (``run_campaign(resources=...)``); ``None``
        #: when resource telemetry is off.
        self.resource_config: ResourceConfig | None = None
        #: Active resource sampler (serial runs and parallel workers
        #: install their own); the flush path drains it.
        self.resources: ResourceSampler | None = None
        #: Whether the current run wraps the experiment loop in
        #: :mod:`cProfile` (``run_campaign(profile=True)``).
        self.profile: bool = False
        #: The reference run's logged record, stashed by
        #: :meth:`make_reference_run` — pruned rows synthesise their
        #: state vector from it.
        self._reference_record: ExperimentRecord | None = None
        #: Config key the cached ``reference_trace`` was recorded under —
        #: guards the detail-rerun fast path against reusing a trace
        #: from a different campaign/workload.
        self._reference_trace_key: tuple | None = None

    # ------------------------------------------------------------------
    # Campaign entry points
    # ------------------------------------------------------------------
    def run_campaign(
        self,
        campaign_name: str,
        resume: bool = False,
        workers: int = 1,
        checkpoints: bool = False,
        fast: bool = True,
        telemetry=None,
        telemetry_jsonl=None,
        probes=None,
        prune=None,
        shared_state: bool = True,
        events=None,
        resources=None,
        profile: bool = False,
    ) -> CampaignResult:
        """Run the campaign's technique-specific algorithm (dispatched
        through the technique registry).

        ``resume=True`` continues an interrupted campaign: already
        logged experiments are kept and skipped (the seeded plan is
        deterministic, so the remaining experiments are exactly the ones
        that would have run).  This is the 'restart' button of the
        paper's progress window surviving a host restart.

        ``workers > 1`` shards the experiment plan across that many
        worker processes (:class:`repro.core.parallel.ParallelCampaignRunner`);
        results are bit-identical to the serial loop.

        ``checkpoints=True`` reuses fault-free prefix state between
        experiments (:mod:`repro.core.checkpoint`): the plan is run in
        first-injection order and each experiment restores the nearest
        cached snapshot instead of re-simulating from cycle 0.  Logged
        rows are bit-identical to a no-checkpoint run; only insertion
        order (never content) may differ.  Ignored on targets without
        ``supports_checkpoints``.

        ``fast=False`` forces the target's reference execution loop
        instead of its fused fast path (a debugging escape hatch; the
        two engines log bit-identical rows).  The choice is applied to
        this session's target and shipped to any parallel workers.

        ``telemetry`` turns on campaign telemetry (see
        :func:`repro.core.telemetry.resolve_telemetry` for the accepted
        values: a mode string, a bool, or a ready
        :class:`~repro.core.telemetry.Telemetry`); ``telemetry_jsonl``
        additionally streams span records and the final snapshot to a
        JSON-lines file.  Telemetry never changes logged rows — it only
        measures the run.

        ``probes`` turns on campaign-scale propagation probes (see
        :func:`repro.core.probes.resolve_probes` for the accepted
        values: ``True``, a probe period in cycles, a dict, or a ready
        :class:`~repro.core.probes.ProbeConfig`).  Every experiment then
        yields a compact propagation summary (``PropagationProbe``
        table; ``goofi analyze --propagation``).  Probing never changes
        logged rows either — probe stops fold into the execution loop
        like breakpoints and the dumps are read-only.

        ``prune`` turns on liveness-based experiment pruning (see
        :func:`repro.core.liveness.resolve_prune`: ``True``, a
        spot-check rate in [0, 1], a dict, or a ready
        :class:`~repro.core.liveness.PruneConfig`).  Experiments whose
        faults provably cannot have an effect are not simulated; their
        rows are synthesised from the reference run and flagged
        ``pruned``, and the spot-check sample re-simulates a seeded
        fraction of them, hard-failing on any divergence.  Incompatible
        with ``probes`` — a pruned experiment is never executed, so its
        propagation summary cannot be observed.

        ``events`` turns on the campaign event stream (see
        :func:`repro.core.events.resolve_events` for the accepted
        values: a destination string such as ``"-"``, a JSONL path, a
        ``.sock``/``udp://`` address, a sink list, or a ready
        :class:`~repro.core.events.EventBus`).  The run then emits
        versioned records for the campaign lifecycle, every finished
        experiment (with prune/spot-check provenance and the rolling
        rate/ETA), telemetry spans, and worker lifecycle — consumed
        live by ``goofi watch`` or recorded for replay.  Events never
        change logged rows; emission happens strictly after a row is
        final.

        ``shared_state`` (parallel runs only) publishes the common
        worker-startup state — reference trace, golden probe snapshots,
        armed initial image — once via ``multiprocessing.shared_memory``
        for zero-copy worker attachment; ``False`` forces the
        serialising fallback (the same content shipped by value).  Rows
        are bit-identical either way.

        ``resources`` turns on worker resource telemetry (see
        :func:`repro.core.resources.resolve_resources`: ``True``, a
        sampling period in seconds, a dict, or a ready
        :class:`~repro.core.resources.ResourceConfig`).  Each worker
        then samples its own CPU time, RSS, and shared-memory footprint
        on that cadence (plus phase boundaries); samples land in the
        ``ResourceSample`` table, stream as ``resource_sample`` events,
        and fold into the telemetry snapshot when telemetry is also on.
        Sampling is read-only observation of the worker process — rows
        are bit-identical with it on or off, and a platform without
        ``/proc`` or ``getrusage`` degrades to no samples, never to a
        failed campaign.

        ``profile=True`` wraps each worker's experiment loop in
        :mod:`cProfile`; the coordinator aggregates the per-worker
        stats and persists a top-N hotspot summary with the campaign
        telemetry snapshot (``goofi stats --profile``).  Implies
        metrics-mode telemetry when none was requested, so the summary
        has a snapshot row to live in.  Purely observational: rows are
        bit-identical profiled or not.
        """
        config = self.read_campaign_data(campaign_name)
        self.target.set_fast_path(fast)
        tele = resolve_telemetry(telemetry, telemetry_jsonl)
        if profile and not tele.enabled:
            # The hotspot summary is persisted with the telemetry
            # snapshot, so profiling needs at least metrics mode.
            tele = Telemetry(MODE_METRICS)
        self.telemetry = tele
        probe_config = resolve_probes(probes)
        if probe_config is not None and not self.target.supports_probes:
            raise ConfigurationError(
                f"target {self.target.target_name!r} does not support "
                f"propagation probes"
            )
        prune_config = resolve_prune(prune)
        if prune_config is not None and probe_config is not None:
            raise ConfigurationError(
                "--prune and --probes cannot be combined: pruned "
                "experiments are never executed, so their propagation "
                "summaries cannot be observed"
            )
        self.probe_config = probe_config
        self.prune_config = prune_config
        self.resource_config = resolve_resources(resources)
        self.profile = bool(profile)
        bus = resolve_events(events)
        # A bus handed in ready-made (e.g. goofi gate, which appends its
        # verdict after the run) stays open for the caller to close.
        owns_bus = bus is not events
        self.events = bus
        try:
            if workers > 1:
                from .parallel import ParallelCampaignRunner

                return ParallelCampaignRunner(self, workers=workers).run(
                    config,
                    resume=resume,
                    checkpoints=checkpoints,
                    fast=fast,
                    shared_state=shared_state,
                )
            method_name = technique_method(config.technique)
            method = getattr(self, method_name, None)
            if method is None:
                raise ConfigurationError(
                    f"technique {config.technique!r} maps to unknown algorithm "
                    f"{method_name!r}"
                )
            return method(campaign_name, resume=resume, checkpoints=checkpoints)
        finally:
            tele.close()
            if owns_bus:
                bus.close()
            self.events = NULL_EVENTS
            self.telemetry = NULL_TELEMETRY
            self.probe_config = None
            self.prune_config = None
            self.resource_config = None
            self.resources = None
            self.profile = False

    def experiment_runner(self, technique: str):
        """The per-experiment body for ``technique`` (bound method taking
        ``(config, spec, trace)`` and returning an
        :class:`~repro.db.models.ExperimentRecord`)."""
        try:
            return getattr(self, self.EXPERIMENT_BODIES[technique])
        except KeyError:
            raise ConfigurationError(
                f"no experiment body for technique {technique!r}"
            ) from None

    def fault_injector_scifi(
        self, campaign_name: str, resume: bool = False, checkpoints: bool = False
    ) -> CampaignResult:
        """The SCIFI algorithm of Figure 2."""
        config = self.read_campaign_data(campaign_name)
        if config.technique != TECHNIQUE_SCIFI:
            raise ConfigurationError(
                f"campaign {campaign_name!r} is configured for "
                f"{config.technique!r}, not SCIFI"
            )
        return self._campaign_loop(
            config, self._run_scifi_experiment, resume=resume, checkpoints=checkpoints
        )

    def fault_injector_pinlevel(
        self, campaign_name: str, resume: bool = False, checkpoints: bool = False
    ) -> CampaignResult:
        """Pin-level fault injection (paper §2.1).

        Built from the same abstract building blocks as SCIFI — the
        read/invert/write cycle simply targets the *boundary* scan
        chain's pin cells, emulating a probe forcing a pin value.  The
        plan generator restricts the location space accordingly; the
        per-experiment body is byte-for-byte the SCIFI inner loop, which
        is exactly the reuse the paper's design argument promises.
        """
        config = self.read_campaign_data(campaign_name)
        if config.technique != TECHNIQUE_PINLEVEL:
            raise ConfigurationError(
                f"campaign {campaign_name!r} is configured for "
                f"{config.technique!r}, not pin-level injection"
            )
        return self._campaign_loop(
            config, self._run_scifi_experiment, resume=resume, checkpoints=checkpoints
        )

    def fault_injector_swifi_preruntime(
        self, campaign_name: str, resume: bool = False, checkpoints: bool = False
    ) -> CampaignResult:
        """Pre-runtime SWIFI: corrupt the memory image, then run.

        Checkpointing is accepted but has nothing to skip here — faults
        land before cycle 0, so there is no fault-free prefix.
        """
        config = self.read_campaign_data(campaign_name)
        if config.technique != TECHNIQUE_SWIFI_PRERUNTIME:
            raise ConfigurationError(
                f"campaign {campaign_name!r} is configured for "
                f"{config.technique!r}, not pre-runtime SWIFI"
            )
        return self._campaign_loop(
            config,
            self._run_swifi_preruntime_experiment,
            resume=resume,
            checkpoints=checkpoints,
        )

    def fault_injector_swifi_runtime(
        self, campaign_name: str, resume: bool = False, checkpoints: bool = False
    ) -> CampaignResult:
        """Runtime SWIFI (future-work extension)."""
        config = self.read_campaign_data(campaign_name)
        if config.technique != TECHNIQUE_SWIFI_RUNTIME:
            raise ConfigurationError(
                f"campaign {campaign_name!r} is configured for "
                f"{config.technique!r}, not runtime SWIFI"
            )
        return self._campaign_loop(
            config,
            self._run_swifi_runtime_experiment,
            resume=resume,
            checkpoints=checkpoints,
        )

    # ------------------------------------------------------------------
    # Shared campaign skeleton
    # ------------------------------------------------------------------
    def read_campaign_data(self, campaign_name: str) -> CampaignConfig:
        """``readCampaignData``: load the configuration from the DB."""
        record = self.db.load_campaign(campaign_name)
        config = CampaignConfig.from_dict(record.config)
        if config.target != self.target.target_name:
            raise ConfigurationError(
                f"campaign {campaign_name!r} targets {config.target!r} but the "
                f"attached interface is {self.target.target_name!r}"
            )
        return config

    def compute_reference_trace(self, config: CampaignConfig):
        """Execute the workload fault-free and record its trace, without
        logging anything.  Parallel workers use this to rebuild the
        (deterministic) trace locally instead of shipping it across the
        process boundary."""
        self._prepare_target(config, faulty_environment=False)
        info, trace = self.target.record_trace(config.termination)
        if info.outcome != "workload_end":
            raise ConfigurationError(
                f"reference run of workload {config.workload!r} did not finish "
                f"cleanly (outcome {info.outcome!r}); fix the campaign's "
                f"termination conditions before injecting faults"
            )
        return info, trace

    def make_reference_run(self, config: CampaignConfig) -> ReferenceTrace:
        """``makeReferenceRun``: execute the workload fault-free, record
        the trace, and log the fault-free state to the database."""
        info, trace = self.compute_reference_trace(config)
        final_state = self.target.capture_state(config.observation)
        state_vector: dict = {"termination": info.to_dict(), "final": final_state}
        if config.logging_mode == LOGGING_DETAIL:
            # Detail mode compares per-instruction states against the
            # reference, so the reference itself needs a stepped run.
            self._prepare_target(config, faulty_environment=False)
            self.target.run_workload()
            _, steps = self._detailed_run(config)
            state_vector["steps"] = steps
        record = ExperimentRecord(
            experiment_name=reference_name(config.name),
            campaign_name=config.name,
            experiment_data={"technique": "reference", "workload": config.workload},
            state_vector=state_vector,
        )
        self.db.replace_experiment(record)
        self.reference_trace = trace
        self._reference_record = record
        self._reference_trace_key = self._trace_cache_key(config)
        return trace

    @staticmethod
    def _trace_cache_key(config: CampaignConfig) -> tuple:
        """Identity of a cached reference trace: every config field the
        trace depends on.  A mismatch only forces a recompute, so a
        conservative key is always safe."""
        return (
            config.target,
            config.workload,
            config.termination.max_cycles,
            config.termination.max_iterations,
            repr(config.environment),
        )

    def _campaign_loop(
        self,
        config: CampaignConfig,
        run_experiment,
        resume: bool = False,
        checkpoints: bool = False,
    ) -> CampaignResult:
        tele = self.telemetry
        sampler: ResourceSampler | None = None
        if self.resource_config is not None:
            # Serial runs sample the one process doing the work; when
            # no backend works the sampler degrades to a no-op rather
            # than failing the campaign.
            sampler = ResourceSampler(self.resource_config, worker=0)
            self.resources = sampler
        if resume:
            already_logged = {
                record.experiment_name
                for record in self.db.iter_experiments(config.name)
            }
        else:
            # A fresh run of a campaign replaces its previously logged
            # results (re-runs with other parameters belong in a new or
            # merged campaign).
            already_logged = set()
            self.db.delete_campaign_experiments(config.name)
        with tele.time("phase.reference"):
            trace = self.make_reference_run(config)
        if sampler is not None:
            sampler.sample("reference")
        space = self.target.location_space()
        with tele.time("phase.plan"):
            plan = PlanGenerator(config, space, trace).generate()
        if sampler is not None:
            sampler.sample("plan")
        if self.probe_config is not None:
            # One extra fault-free pass captures the golden snapshots
            # every experiment's probes diff against.
            with tele.time("phase.golden"):
                self.probes = ProbeSession.create(
                    self.target,
                    lambda: self._prepare_target(config, faulty_environment=False),
                    config.termination,
                    self.probe_config,
                )
                # The golden pass also records per-element liveness —
                # the same summary the pruning classifier reasons from.
                self.probes.golden.liveness = liveness_map(trace)
            if sampler is not None:
                sampler.sample("golden")
        remaining = [spec for spec in plan if spec.name not in already_logged]
        prune_plan: PrunePlan | None = None
        if self.prune_config is not None:
            with tele.time("phase.prune"):
                prune_plan = build_prune_plan(
                    config,
                    trace,
                    space,
                    remaining,
                    self.prune_config,
                    self._reference_record,
                )
                remaining = prune_plan.to_run
                # Synthesised rows of skipped experiments are persisted
                # up front; spot-checked ones wait for their simulation
                # to confirm the prediction.
                upfront = prune_plan.upfront_records()
                for start in range(0, len(upfront), 256):
                    self.db.save_experiments(upfront[start : start + 256])
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
                tele.metrics.inc(
                    "prune.spot_checks", len(prune_plan.spot_checks)
                )
        if checkpoints and self.target.supports_checkpoints:
            # First-injection order makes the breakpoint sequence
            # monotone, so every checkpoint taken is at or before all
            # later experiments' first breakpoints.  Row content is
            # per-experiment deterministic; only DB insertion order
            # changes (the rows are keyed by experiment name).
            remaining = sort_plan_by_first_injection(remaining, trace)
            self.checkpoints = CheckpointCache(self.checkpoint_capacity)
        bus = self.events
        if bus.enabled:
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
                workers=1,
                checkpoints=self.checkpoints is not None,
            )
            if prune_plan is not None:
                # Skipped experiments were logged up front from
                # synthesised rows; their events carry the provenance
                # flag and no run-progress counter (they never run).
                emit_pruned_events(bus, config.name, prune_plan, len(remaining))
        progress = self.progress
        progress.start(config.name, len(remaining))
        if bus.enabled:
            bus.emit(
                "campaign_started",
                campaign=config.name,
                total=len(remaining),
                workers=1,
            )
        self.db.set_campaign_status(config.name, "running")
        logger.info(
            "campaign %r: %d experiments to run (%d already logged)%s",
            config.name,
            len(remaining),
            len(already_logged),
            ", checkpointing" if self.checkpoints is not None else "",
        )
        completed = 0
        aborted = False
        failed = False
        checkpoint_stats: dict | None = None
        snapshot: dict | None = None
        profile_data: dict | None = None
        pending: list[ExperimentRecord] = []
        collector = ProfileCollector() if self.profile else None
        try:
            if collector is not None:
                collector.start()
            for spec in remaining:
                if progress.abort_requested:
                    aborted = True
                    break
                record = run_experiment(config, spec, trace)
                spot_checked = (
                    prune_plan is not None and spec.name in prune_plan.spot_checks
                )
                if spot_checked:
                    # Hard-fails with PruneDivergence on mismatch; the
                    # confirmed synthesised row (pruned flag set) is
                    # what gets logged.
                    record = prune_plan.verify_spot_check(spec.name, record)
                pending.append(record)
                if len(pending) >= 64:
                    self._flush_batch(config.name, pending)
                    pending = []
                completed += 1
                if sampler is not None:
                    sampler.maybe_sample()
                outcome = record.state_vector["termination"]["outcome"]
                progress_event = progress.experiment_done(spec.name, outcome)
                if bus.enabled:
                    bus.experiment_finished(
                        progress_event,
                        pruned=record.pruned,
                        spot_check=spot_checked,
                    )
        except BaseException:
            failed = True
            raise
        finally:
            if collector is not None:
                collector.stop()
                profile_data = profile_summary(
                    merge_profile_stats([collector.stats_payload()]), workers=1
                )
            if sampler is not None:
                sampler.sample("finish")
            if self.checkpoints is not None:
                checkpoint_stats = self.checkpoints.stats.to_dict()
                self.checkpoints = None
            # A crashing experiment must not lose the batched records
            # accumulated before it, nor leave the campaign stuck at
            # "running" — flush and mark aborted before propagating.
            try:
                if (
                    pending
                    or (self.probes is not None and self.probes.has_pending)
                    or (sampler is not None and sampler.pending)
                ):
                    self._flush_batch(config.name, pending)
            except Exception:
                if not failed:
                    raise
            finally:
                self.probes = None
                self.resources = None
            progress.finish()
            self.db.set_campaign_status(
                config.name, "aborted" if (aborted or failed) else "completed"
            )
            logger.info(
                "campaign %r %s: %d/%d experiments in %.1fs",
                config.name,
                "aborted" if (aborted or failed) else "completed",
                completed,
                len(remaining),
                progress.elapsed_seconds,
            )
            if bus.enabled:
                bus.emit(
                    "campaign_aborted"
                    if (aborted or failed)
                    else "campaign_finished",
                    campaign=config.name,
                    completed=completed,
                    total=len(remaining),
                    elapsed_seconds=round(progress.elapsed_seconds, 6),
                )
            if tele.enabled and not failed:
                if sampler is not None:
                    sampler.fold_into(tele.metrics)
                snapshot = self._finish_telemetry(
                    config.name, checkpoint_stats, profile=profile_data
                )
        return CampaignResult(
            campaign_name=config.name,
            experiments_run=completed,
            experiments_planned=len(remaining),
            aborted=aborted,
            elapsed_seconds=progress.elapsed_seconds,
            checkpoint_stats=checkpoint_stats,
            telemetry=snapshot,
            prune=prune_plan.report() if prune_plan is not None else None,
            profile=profile_data,
            resource_samples=(
                sampler.samples_taken if sampler is not None else None
            ),
        )

    def _flush_batch(
        self, campaign_name: str, records: list[ExperimentRecord]
    ) -> None:
        """Persist one batch of experiment rows — plus any span records
        and probe summaries drained since the last flush — timing the
        write when telemetry is on."""
        tele = self.telemetry
        probe_records = (
            [
                ProbeRecord(
                    experiment_name=payload["experiment"],
                    campaign_name=campaign_name,
                    probe=payload,
                )
                for payload in self.probes.drain()
            ]
            if self.probes is not None
            else []
        )
        resource_records: list[ResourceSampleRecord] = []
        if self.resources is not None:
            samples = self.resources.drain()
            if self.events.enabled:
                for sample in samples:
                    self.events.emit(
                        "resource_sample",
                        campaign=campaign_name,
                        worker=sample["worker"],
                        sample=sample,
                    )
            resource_records = [
                ResourceSampleRecord(
                    campaign_name=campaign_name,
                    sample=sample,
                    worker=sample["worker"],
                )
                for sample in samples
            ]
        if not tele.enabled:
            if records:
                self.db.save_experiments(records)
            self.db.save_probes(probe_records)
            self.db.save_resource_samples(resource_records)
            return
        spans = tele.drain_spans()
        for span in spans:
            # Lane annotation for the trace export; parallel runs tag
            # the worker id instead.
            span.setdefault("worker", 0)
        if self.events.enabled:
            # Phase-span events reuse the telemetry record verbatim as
            # their payload — the stream and the ExperimentSpan table
            # speak the same dialect.
            for span in spans:
                self.events.emit(
                    "span",
                    campaign=campaign_name,
                    worker=span["worker"],
                    span=span,
                )
        started = time.perf_counter()
        if records:
            self.db.save_experiments(records)
        self.db.save_probes(probe_records)
        self.db.save_resource_samples(resource_records)
        if spans:
            self.db.save_spans(
                [
                    SpanRecord(
                        experiment_name=span["experiment"],
                        campaign_name=campaign_name,
                        span=span,
                    )
                    for span in spans
                ]
            )
        elapsed = time.perf_counter() - started
        metrics = tele.metrics
        metrics.add_time("phase.db_write", elapsed)
        metrics.observe("db.batch_seconds", elapsed)
        metrics.inc("db.rows", len(records))
        metrics.inc("db.batches")

    def _finish_telemetry(
        self,
        campaign_name: str,
        checkpoint_stats: dict | None = None,
        profile: dict | None = None,
    ) -> dict:
        """Close out a telemetered campaign: fold the execution-engine
        and checkpoint-cache counters into the registry, write the
        final snapshot to the database (and the JSONL sink, when one is
        configured), and return it.  A ``--profile`` run's aggregated
        hotspot summary rides along in the persisted snapshot under the
        ``profile`` key."""
        tele = self.telemetry
        metrics = tele.metrics
        for key, value in self.target.execution_stats().items():
            if key == "cycles":
                continue  # point-in-time, not a counter — summing it lies
            metrics.inc(f"engine.{key}", value)
        if checkpoint_stats:
            for key, value in checkpoint_stats.items():
                metrics.inc(f"checkpoint.cache.{key}", value)
        metrics.gauges.setdefault("workers", 1)
        metrics.set_gauge("elapsed_seconds", self.progress.elapsed_seconds)
        snapshot = tele.write_snapshot()
        if profile is not None:
            snapshot["profile"] = profile
        self.db.save_campaign_telemetry(campaign_name, snapshot)
        logger.debug(
            "campaign %r: telemetry snapshot saved (%d counters, %d timers)",
            campaign_name,
            len(snapshot["counters"]),
            len(snapshot["timers"]),
        )
        return snapshot

    # ------------------------------------------------------------------
    # Experiment bodies
    # ------------------------------------------------------------------
    def _prepare_target(
        self, config: CampaignConfig, faulty_environment: bool = True
    ) -> None:
        """initTestCard + loadWorkload + environment attachment — the
        common preamble of every experiment and of the reference run.

        ``faulty_environment`` controls whether the campaign's declared
        environment-boundary faults (``environment["faults"]``) are
        armed: experiments pass True, while reference runs and golden
        probe passes pass False so classification always compares
        against a clean baseline.  The environment (wrapper and RNG
        stream included) is recreated here per experiment, which keeps
        rows deterministic regardless of worker count.
        """
        target = self.target
        target.init_test_card()
        environment = None
        if config.environment is not None:
            environment = create_environment(
                config.environment["name"], config.environment.get("params")
            )
            faults = config.environment.get("faults")
            if faulty_environment and faults is not None:
                from ..workloads.envsim import wrap_environment

                environment = wrap_environment(environment, faults)
        target.set_environment(environment)
        target.load_workload(config.workload)

    def _arm_target(self, config: CampaignConfig, schedule, span=NULL_SPAN) -> None:
        """Bring the target to the armed, fault-free state every
        breakpoint-driven experiment starts from: restore the nearest
        checkpoint at or before the first injection when one is cached,
        else do the full reset-and-run preamble."""
        cache = self.checkpoints
        if cache is not None and schedule:
            checkpoint = cache.nearest(schedule[0][0])
            if checkpoint is not None:
                with span.phase("restore"):
                    self.target.restore_state(checkpoint.state)
                span.add("checkpoint.restores")
                return
            span.add("checkpoint.misses")
        with span.phase("setup"):
            self._prepare_target(config)
            self.target.run_workload()

    def _save_checkpoint(self, cycle: int, span=NULL_SPAN) -> None:
        """Snapshot the target at an experiment's *first* breakpoint —
        guaranteed fault-free, since nothing has been injected yet."""
        cache = self.checkpoints
        if cache is not None and not cache.has(cycle):
            cache.save(cycle, self.target.save_state())
            span.add("checkpoint.saves")

    def _run_scifi_experiment(
        self, config: CampaignConfig, spec: ExperimentSpec, trace: ReferenceTrace
    ) -> ExperimentRecord:
        """One SCIFI experiment: the inner loop of Figure 2."""
        target = self.target
        span = self.telemetry.span(spec.name)
        schedule = self._injection_schedule(spec, trace)
        probe = self._observe(spec, schedule)
        self._arm_target(config, schedule, span)
        armed_cycle = 0 if span is NULL_SPAN else target.current_cycle()

        applied: list[dict] = []
        ended_early: TerminationInfo | None = None
        for position, (cycle, fault) in enumerate(schedule):
            with span.phase("execution"):
                if probe is None:
                    ended_early = target.wait_for_breakpoint(cycle)
                else:
                    ended_early = probe.run_to_breakpoint(target, cycle)
            if position == 0 and ended_early is None:
                self._save_checkpoint(cycle, span)
            if ended_early is not None:
                applied.append(self._fault_entry(fault, cycle, applied_flag=False))
                continue
            with span.phase("injection"):
                self._apply_scan_fault(fault, cycle, spec.seed)
            span.add("injections")
            applied.append(self._fault_entry(fault, cycle, applied_flag=True))

        return self._finish_experiment(
            config, spec, applied, ended_early, span, armed_cycle, probe
        )

    def _run_swifi_preruntime_experiment(
        self, config: CampaignConfig, spec: ExperimentSpec, trace: ReferenceTrace
    ) -> ExperimentRecord:
        """One pre-runtime SWIFI experiment: corrupt the image, run."""
        target = self.target
        span = self.telemetry.span(spec.name)
        with span.phase("setup"):
            self._prepare_target(config)
        applied: list[dict] = []
        with span.phase("injection"):
            for fault in spec.faults:
                location = fault.location
                if location.kind != KIND_MEMORY:
                    raise ConfigurationError(
                        f"pre-runtime SWIFI cannot inject into {location.label()}"
                    )
                word = target.read_memory(location.address, 1)[0]
                target.write_memory(location.address, [word ^ (1 << location.bit)])
                applied.append(self._fault_entry(fault, 0, applied_flag=True))
        span.add("injections", len(applied))
        target.run_workload()
        armed_cycle = 0 if span is NULL_SPAN else target.current_cycle()
        probe = self._observe(spec, schedule=[])
        return self._finish_experiment(
            config, spec, applied, None, span, armed_cycle, probe
        )

    def _run_swifi_runtime_experiment(
        self, config: CampaignConfig, spec: ExperimentSpec, trace: ReferenceTrace
    ) -> ExperimentRecord:
        """One runtime SWIFI experiment: stop at the trigger and corrupt
        memory (or an architecturally visible register) via the host
        debugger link, then resume."""
        target = self.target
        span = self.telemetry.span(spec.name)
        schedule = self._injection_schedule(spec, trace)
        probe = self._observe(spec, schedule)
        self._arm_target(config, schedule, span)
        armed_cycle = 0 if span is NULL_SPAN else target.current_cycle()

        applied: list[dict] = []
        ended_early: TerminationInfo | None = None
        for position, (cycle, fault) in enumerate(schedule):
            with span.phase("execution"):
                if probe is None:
                    ended_early = target.wait_for_breakpoint(cycle)
                else:
                    ended_early = probe.run_to_breakpoint(target, cycle)
            if position == 0 and ended_early is None:
                self._save_checkpoint(cycle, span)
            if ended_early is not None:
                applied.append(self._fault_entry(fault, cycle, applied_flag=False))
                continue
            with span.phase("injection"):
                location = fault.location
                if location.kind == KIND_MEMORY:
                    word = target.read_memory(location.address, 1)[0]
                    target.write_memory(
                        location.address, [word ^ (1 << location.bit)]
                    )
                elif location.element.startswith("regs."):
                    self._apply_scan_fault(fault, cycle, spec.seed)
                else:
                    raise ConfigurationError(
                        f"runtime SWIFI reaches memory and registers only, "
                        f"not {location.label()}"
                    )
            span.add("injections")
            applied.append(self._fault_entry(fault, cycle, applied_flag=True))

        return self._finish_experiment(
            config, spec, applied, ended_early, span, armed_cycle, probe
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _observe(self, spec: ExperimentSpec, schedule):
        """An :class:`~repro.core.probes.ExperimentProbe` for this
        experiment when a probe session is active, else ``None``.  The
        first injection cycle anchors the probe schedule (probes sample
        strictly after it)."""
        probes = self.probes
        if probes is None:
            return None
        first_injection = schedule[0][0] if schedule else 0
        return probes.observe(spec.name, spec.index, first_injection)
    @staticmethod
    def _injection_schedule(
        spec: ExperimentSpec, trace: ReferenceTrace
    ) -> list[tuple[int, PlannedFault]]:
        """Resolve every fault's trigger against the reference trace and
        order the injections by time."""
        schedule = [(fault.trigger.resolve(trace), fault) for fault in spec.faults]
        schedule.sort(key=lambda item: item[0])
        return schedule

    def _apply_scan_fault(self, fault: PlannedFault, cycle: int, seed: int) -> None:
        """readScanChain / injectFault / writeScanChain for transients
        (through the target's :meth:`flip_scan_bit`); overlay
        installation for permanent and intermittent models."""
        location = fault.location
        if location.kind != KIND_SCAN:
            raise TargetError(f"scan injection got {location.label()}")
        if is_transient(fault.model):
            self.target.flip_scan_bit(location)
        else:
            self.target.install_fault_overlay(location, fault.model, seed)

    @staticmethod
    def _fault_entry(fault: PlannedFault, cycle: int, applied_flag: bool) -> dict:
        entry = fault.to_dict()
        entry["injection_cycle"] = cycle
        entry["applied"] = applied_flag
        return entry

    def _finish_experiment(
        self,
        config: CampaignConfig,
        spec: ExperimentSpec,
        applied: list[dict],
        ended_early: TerminationInfo | None,
        span=NULL_SPAN,
        armed_cycle: int = 0,
        probe=None,
    ) -> ExperimentRecord:
        """waitForTermination + readMemory + readScanChain: run to the
        end and log the observed state."""
        if ended_early is not None:
            info = ended_early
            steps: list[dict] | None = None
        elif config.logging_mode == LOGGING_DETAIL:
            # Detail mode already observes every instruction; probes
            # sample only in the breakpoint segments before it.
            with span.phase("execution"):
                info, steps = self._detailed_run(config)
        else:
            with span.phase("execution"):
                if probe is None:
                    info = self.target.wait_for_termination(config.termination)
                else:
                    info = probe.run_to_termination(
                        self.target, config.termination
                    )
            steps = None
        if probe is not None:
            probe.finish(info, applied)
        with span.phase("readout"):
            final_state = self.target.capture_state(config.observation)
        state_vector: dict = {"termination": info.to_dict(), "final": final_state}
        if steps is not None:
            state_vector["steps"] = steps
        if span is not NULL_SPAN:
            # Cycles simulated by this experiment (after arming) — a
            # deterministic work measure: serial and parallel runs of
            # the same plan total the same count.
            span.add("instructions", self.target.current_cycle() - armed_cycle)
        span.finish(info.outcome)
        return ExperimentRecord(
            experiment_name=spec.name,
            campaign_name=config.name,
            experiment_data={
                "technique": config.technique,
                "index": spec.index,
                "seed": spec.seed,
                "faults": applied,
            },
            state_vector=state_vector,
        )

    def _detailed_run(self, config: CampaignConfig) -> tuple[TerminationInfo, list[dict]]:
        """Detail mode: single-step to termination, logging the system
        state every ``detail_period`` instructions."""
        target = self.target
        steps: list[dict] = []
        period = config.detail_period
        executed = 0
        while True:
            info = target.single_step(config.termination)
            executed += 1
            if executed % period == 0 or info is not None:
                steps.append(
                    {
                        "cycle": target.current_cycle(),
                        "state": target.capture_state(config.observation),
                    }
                )
            if info is not None:
                return info, steps

    # ------------------------------------------------------------------
    # Re-run support (parentExperiment workflow)
    # ------------------------------------------------------------------
    def rerun_experiment_detailed(
        self, experiment_name_to_rerun: str, new_experiment_name: str | None = None
    ) -> ExperimentRecord:
        """Re-run a logged experiment in detail mode, logging the state
        after each machine instruction, and store it with
        ``parentExperiment`` pointing at the original — the paper's
        E1/E2 investigation workflow (§2.3).
        """
        parent = self.db.load_experiment(experiment_name_to_rerun)
        config = self.read_campaign_data(parent.campaign_name)
        detail_config = CampaignConfig.from_dict(
            {**config.to_dict(), "logging_mode": LOGGING_DETAIL, "detail_period": 1}
        )
        technique = parent.experiment_data["technique"]
        if technique == "reference":
            # Re-running the fault-free reference in detail mode gives
            # the per-instruction baseline that propagation analysis
            # diffs faulty re-runs against.
            technique = config.technique
            faults = []
        else:
            faults = [
                PlannedFault.from_dict(entry)
                for entry in parent.experiment_data["faults"]
            ]
        spec = ExperimentSpec(
            name=new_experiment_name or f"{experiment_name_to_rerun}/detail",
            index=int(parent.experiment_data.get("index", 0)),
            faults=tuple(faults),
            seed=int(parent.experiment_data.get("seed", detail_config.seed)),
        )
        # Reuse the cached reference trace only when it was recorded
        # under a config with the same trace-relevant fields — a stale
        # trace from another campaign/workload would silently resolve
        # triggers against the wrong execution.
        key = self._trace_cache_key(detail_config)
        trace = self.reference_trace if self._reference_trace_key == key else None
        if trace is None:
            self._prepare_target(detail_config, faulty_environment=False)
            _, trace = self.target.record_trace(detail_config.termination)
            self.reference_trace = trace
            self._reference_trace_key = key
        try:
            runner = self.experiment_runner(technique)
        except ConfigurationError:
            raise ConfigurationError(f"cannot re-run technique {technique!r}") from None
        record = runner(detail_config, spec, trace)
        record = ExperimentRecord(
            experiment_name=spec.name,
            campaign_name=record.campaign_name,
            experiment_data=record.experiment_data,
            state_vector=record.state_vector,
            parent_experiment=parent.experiment_name,
        )
        self.db.save_experiment(record)
        return record


def register_target_system(db: GoofiDatabase, target: TargetSystemInterface) -> None:
    """Configuration phase: store the target's description in
    ``TargetSystemData`` (what the paper's Figure 5 GUI does)."""
    db.save_target(
        TargetSystemRecord(
            target_name=target.target_name,
            test_card_name=target.test_card_name,
            config=target.describe(),
        )
    )


def store_campaign(db: GoofiDatabase, config: CampaignConfig) -> None:
    """Set-up phase: store a campaign configuration in ``CampaignData``."""
    db.save_campaign(
        CampaignRecord(
            campaign_name=config.name,
            target_name=config.target,
            test_card_name="",
            config=config.to_dict(),
        )
    )
