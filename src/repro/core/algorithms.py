"""The fault-injection algorithms (paper Figure 2).

``FaultInjectionAlgorithms`` holds the generic campaign algorithms,
written exclusively against the abstract building blocks of
:class:`repro.core.framework.TargetSystemInterface` — the paper's
central design idea: "By combining different abstract methods we can
define algorithms for fault injection techniques such as SCIFI, SWIFI
or pin level fault injection."

A technique is an *experiment body* — one method running one
experiment — registered under the technique's name
(:func:`repro.core.plugins.register_technique`).  The campaign around it
(reference run, plan, batching, progress, resume) is the same for every
technique and every worker count: :mod:`repro.core.coordinator`.  The
built-in bodies:

``_run_scifi_experiment``
    The paper's main algorithm, step for step: init test card, load
    workload, write memory, run workload, wait for breakpoint, read
    scan chain, inject fault, write scan chain, wait for termination,
    read memory, read scan chain.  Pin-level injection (§2.1) reuses it
    verbatim on the boundary chain's pin cells.
``_run_swifi_preruntime_experiment``
    "Faults are injected into the program and data areas of the target
    system before it starts to execute": flip memory-image bits through
    the host link, then run to termination.
``_run_swifi_runtime_experiment``
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

from ..db import (
    CampaignRecord,
    ExperimentRecord,
    GoofiDatabase,
    TargetSystemRecord,
    reference_name,
)
from .campaign import (
    LOGGING_DETAIL,
    CampaignConfig,
    ExperimentSpec,
    PlannedFault,
)
from .checkpoint import DEFAULT_CHECKPOINT_CAPACITY, CheckpointCache
from .coordinator import CampaignResult, Coordinator, RunOptions
from .errors import ConfigurationError, TargetError
from .events import resolve_events
from .faultmodels import is_transient
from .framework import (
    TargetSystemInterface,
    TerminationInfo,
)
from .liveness import resolve_prune
from .locations import KIND_MEMORY, KIND_SCAN
from .plugins import create_environment, technique_method
from .probes import ProbeSession, resolve_probes
from .progress import ProgressReporter
from .resources import resolve_resources
from .telemetry import (
    MODE_METRICS,
    NULL_SPAN,
    NULL_TELEMETRY,
    Telemetry,
    resolve_telemetry,
)
from .triggers import ReferenceTrace


class FaultInjectionAlgorithms:
    """Generic fault-injection campaign algorithms.

    The constructor takes the three things every algorithm needs: a
    target-system interface, the GOOFI database, and (optionally) a
    progress reporter for the monitoring/pause/end controls.  Worker
    processes build the same class with ``db=None``, so a subclass
    registering its own technique keeps this constructor signature.
    """

    def __init__(
        self,
        target: TargetSystemInterface,
        db: GoofiDatabase | None,
        progress: ProgressReporter | None = None,
    ) -> None:
        """``db`` may be ``None`` for experiment-only use (campaign
        worker processes never touch the database — running a campaign
        then raises on the missing connection)."""
        self.target = target
        self.db = db
        self.progress = progress or ProgressReporter()
        #: Filled by :meth:`make_reference_run`.
        self.reference_trace: ReferenceTrace | None = None
        #: LRU capacity of each executor's checkpoint cache (the CLI
        #: exposes it as ``--checkpoint-capacity``).
        self.checkpoint_capacity: int = DEFAULT_CHECKPOINT_CAPACITY
        # The experiment bodies' instruments, installed by the shard
        # loop (repro.core.parallel) for the duration of one shard:
        #: telemetry handle (``NULL_TELEMETRY`` — every operation a
        #: shared no-op — outside a telemetered run),
        self.telemetry = NULL_TELEMETRY
        #: checkpoint cache the bodies consult to skip re-simulating
        #: the fault-free prefix,
        self.checkpoints: CheckpointCache | None = None
        #: and probe session routing execution segments through probes.
        self.probes: ProbeSession | None = None
        #: The reference run's logged record, stashed by
        #: :meth:`make_reference_run` — pruned rows synthesise their
        #: state vector from it.
        self._reference_record: ExperimentRecord | None = None
        #: Config key the cached ``reference_trace`` was recorded under —
        #: guards the detail-rerun fast path against reusing a trace
        #: from a different campaign/workload.
        self._reference_trace_key: tuple | None = None

    # ------------------------------------------------------------------
    # Campaign entry point
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
        """Run a stored campaign through the coordinator
        (:mod:`repro.core.coordinator`), which runs the campaign's
        technique (dispatched through the technique registry).

        ``resume=True`` continues an interrupted campaign: already
        logged experiments are kept and skipped (the seeded plan is
        deterministic, so the remaining experiments are exactly the ones
        that would have run).  This is the 'restart' button of the
        paper's progress window surviving a host restart.

        ``workers`` (at least 1) runs the plan in this process at 1, or
        shards it across that many worker processes
        (:mod:`repro.core.parallel`); results are bit-identical.

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

        ``resources`` turns on resource telemetry (see
        :func:`repro.core.resources.resolve_resources`: ``True``, a
        sampling period in seconds, a dict, or a ready
        :class:`~repro.core.resources.ResourceConfig`).  Each process
        doing work then samples its own CPU time, RSS, and shared-memory
        footprint on that cadence (plus phase boundaries); samples land
        in the ``ResourceSample`` table, stream as ``resource_sample``
        events, and fold into the telemetry snapshot when telemetry is
        also on.  Sampling is read-only observation — rows are
        bit-identical with it on or off, and a platform without
        ``/proc`` or ``getrusage`` degrades to no samples, never to a
        failed campaign.

        ``profile=True`` wraps each executor's experiment loop in
        :mod:`cProfile`; the coordinator aggregates the per-worker
        stats and persists a top-N hotspot summary with the campaign
        telemetry snapshot (``goofi stats --profile``).  Implies
        metrics-mode telemetry when none was requested, so the summary
        has a snapshot row to live in.  Purely observational: rows are
        bit-identical profiled or not.
        """
        if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
            raise ConfigurationError(f"workers must be an integer >= 1, got {workers!r}")
        if self.db is None:
            raise ConfigurationError("running a campaign needs a database connection")
        config = self.read_campaign_data(campaign_name)
        self.experiment_runner(config.technique)  # unknown techniques fail here
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
        tele = resolve_telemetry(telemetry, telemetry_jsonl)
        if profile and not tele.enabled:
            # The hotspot summary is persisted with the telemetry
            # snapshot, so profiling needs at least metrics mode.
            tele = Telemetry(MODE_METRICS)
        options = RunOptions(
            resume=resume,
            workers=workers,
            checkpoints=bool(checkpoints) and self.target.supports_checkpoints,
            checkpoint_capacity=self.checkpoint_capacity,
            fast=fast,
            shared_state=shared_state,
            telemetry=tele.mode,
            probes=probe_config,
            prune=prune_config,
            resources=resolve_resources(resources),
            profile=bool(profile),
        )
        self.target.set_fast_path(fast)
        bus = resolve_events(events)
        try:
            return Coordinator(self, config, options, tele, bus).run()
        finally:
            tele.close()
            # A bus handed in ready-made (e.g. goofi gate, which appends
            # its verdict after the run) stays open for the caller.
            if bus is not events:
                bus.close()

    def experiment_runner(self, technique: str):
        """The per-experiment body registered for ``technique`` (bound
        method taking ``(config, spec, trace)`` and returning an
        :class:`~repro.db.models.ExperimentRecord`)."""
        method_name = technique_method(technique)
        method = getattr(self, method_name, None)
        if method is None:
            raise ConfigurationError(
                f"technique {technique!r} maps to unknown experiment body "
                f"{method_name!r}"
            )
        return method

    # ------------------------------------------------------------------
    # Campaign data and the reference run
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
        logging anything (the first half of :meth:`make_reference_run`)."""
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
        return self._run_breakpoint_experiment(
            config, spec, trace, self._apply_scan_fault
        )

    def _run_swifi_runtime_experiment(
        self, config: CampaignConfig, spec: ExperimentSpec, trace: ReferenceTrace
    ) -> ExperimentRecord:
        """One runtime SWIFI experiment: stop at the trigger and corrupt
        memory (or an architecturally visible register) via the host
        debugger link, then resume."""
        return self._run_breakpoint_experiment(
            config, spec, trace, self._apply_runtime_fault
        )

    def _run_breakpoint_experiment(
        self,
        config: CampaignConfig,
        spec: ExperimentSpec,
        trace: ReferenceTrace,
        inject,
    ) -> ExperimentRecord:
        """The breakpoint-driven experiment both SCIFI and runtime SWIFI
        share: arm the target, then per scheduled fault wait for its
        breakpoint and call ``inject(fault, cycle, seed)``, then run to
        termination and log."""
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
                inject(fault, cycle, spec.seed)
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
                self._flip_memory_bit(location)
                applied.append(self._fault_entry(fault, 0, applied_flag=True))
        span.add("injections", len(applied))
        target.run_workload()
        armed_cycle = 0 if span is NULL_SPAN else target.current_cycle()
        probe = self._observe(spec, schedule=[])
        return self._finish_experiment(
            config, spec, applied, None, span, armed_cycle, probe
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

    def _apply_runtime_fault(self, fault: PlannedFault, cycle: int, seed: int) -> None:
        """Runtime SWIFI injection through the debugger link: a memory
        word, or a register through its scan element."""
        location = fault.location
        if location.kind == KIND_MEMORY:
            self._flip_memory_bit(location)
        elif location.element.startswith("regs."):
            self._apply_scan_fault(fault, cycle, seed)
        else:
            raise ConfigurationError(
                f"runtime SWIFI reaches memory and registers only, "
                f"not {location.label()}"
            )

    def _flip_memory_bit(self, location) -> None:
        word = self.target.read_memory(location.address, 1)[0]
        self.target.write_memory(location.address, [word ^ (1 << location.bit)])

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
