"""The benchmark's four campaigns: how each is configured, run, checked.

Every campaign is built only through the program's public API
(``GoofiSession``, ``CampaignConfig``, ``run_campaign``,
``repro.analysis``).  One :func:`run_campaign_once` call is one closed
loop: it opens a session on a fresh file-backed database, stores the
generated campaign, runs it, waits for it, analyses it and checks the
logged rows.  With ``reference=True`` it runs the same campaign on the
program's plain serial path instead, to fix the rows every measured
campaign must reproduce.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import CampaignConfig, GoofiSession, ProgressReporter, analysis
from repro.workloads import load

from speed import SpeedSampler, scaled


@dataclass(frozen=True)
class Workload:
    """One workload: a thor-rd-sim campaign, its run options and its
    analysis calls.  ``why`` says what the workload stresses."""

    name: str
    why: str
    #: Planned experiments per campaign.
    experiments: int
    technique: str
    program: str
    locations: tuple[str, ...]
    workers: int = 1
    run_options: dict = field(default_factory=dict)
    #: Attach the dc_motor plant to the program's sensor and actuator.
    dc_motor: bool = False
    #: Whether the run ends with the observability reports (stats,
    #: propagation, HTML) as well as classification and the report.
    full_analysis: bool = False
    #: Records an ``events`` JSONL stream into the run's work directory.
    events: bool = False


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="scifi_serial",
            why="the paper's headline SCIFI technique: target execution, "
            "scan-chain injection and checkpoint restore do the work; "
            "parallel and observability layers are idle",
            experiments=2000,
            technique="scifi",
            program="bubble_sort",
            locations=("internal:*",),
            run_options={"checkpoints": True},
        ),
        Workload(
            name="scifi_w2",
            why="the same campaign on 2 workers with shared state: the A/B "
            "for repro.core.parallel and sharedstate; rows must equal "
            "scifi_serial's",
            experiments=2000,
            technique="scifi",
            program="bubble_sort",
            locations=("internal:*",),
            workers=2,
            run_options={"checkpoints": True, "shared_state": True},
        ),
        Workload(
            name="swifi_pruned",
            why="pre-runtime SWIFI with liveness pruning: every experiment "
            "pays full target set-up, no scan-chain injection or "
            "checkpoints, repro.core.liveness does real work",
            experiments=2000,
            technique="swifi_preruntime",
            program="matmul",
            locations=("memory:data",),
            run_options={"prune": True},
        ),
        Workload(
            name="observed",
            why="control loop with the dc_motor plant and every observer "
            "on: probes, telemetry spans, events, resource samples and "
            "the full set of analysis views",
            experiments=300,
            technique="scifi",
            program="control_protected",
            locations=("internal:*",),
            dc_motor=True,
            run_options={
                "checkpoints": True,
                "probes": True,
                "telemetry": "spans",
                "resources": True,
            },
            full_analysis=True,
            events=True,
        ),
    )
}


def campaign_seed(seed: int) -> int:
    """The campaign seed derived from the benchmark seed.  It does not
    depend on the workload, so ``scifi_serial`` and ``scifi_w2`` plan
    the same experiments."""
    return random.Random(f"goofi-campaign-{seed}").randrange(1, 2**31)


def build_config(session: GoofiSession, workload: Workload, seed: int) -> CampaignConfig:
    environment = None
    if workload.dc_motor:
        program = load(workload.program)
        environment = {
            "name": "dc_motor",
            "params": {
                "sensor_addr": program.symbol("sensor"),
                "actuator_addr": program.symbol("actuator"),
            },
        }
    return CampaignConfig(
        name=workload.name,
        target="thor-rd-sim",
        technique=workload.technique,
        workload=workload.program,
        location_patterns=workload.locations,
        num_experiments=workload.experiments,
        termination=session.default_termination(workload.program),
        observation=session.default_observation(workload.program),
        seed=campaign_seed(seed),
        environment=environment,
    )


def analyse(db, workload: Workload, name: str) -> None:
    """The workload's analysis phase.  Calls go through the
    ``repro.analysis`` module attributes so a traced run sees them."""
    analysis.classify_campaign(db, name)
    analysis.campaign_report(db, name)
    if workload.full_analysis:
        analysis.stats_report(db, name)
        analysis.propagation_report(db, name)
        analysis.render_campaign_report(db, name)


def row_digest(db, name: str) -> str:
    """SHA-256 over every logged row's ``(name without the campaign
    prefix, experiment_data, state_vector)``, sorted by name.  Without
    the prefix, equal rows of differently named campaigns hash equal."""
    prefix = f"{name}/"
    rows = sorted(
        (
            record.experiment_name.removeprefix(prefix),
            json.dumps(record.experiment_data, sort_keys=True),
            json.dumps(record.state_vector, sort_keys=True),
        )
        for record in db.iter_experiments(name)
    )
    digest = hashlib.sha256()
    for row in rows:
        digest.update(json.dumps(row).encode())
    return digest.hexdigest()


@dataclass
class CampaignRun:
    """What one closed-loop campaign run measured and found.  Times are
    ``time.perf_counter()`` readings."""

    planned: int
    logged: int = 0
    status: str = "not started"
    error: str | None = None
    digest: str | None = None
    opened_at: float = 0.0
    #: Every ``experiment_done`` event.
    done_at: list[float] = field(default_factory=list)
    campaign_end: float = 0.0
    analysis_start: float = 0.0
    analysis_end: float = 0.0
    #: Machine-speed samples; ``None`` in traced runs.
    speed: SpeedSampler | None = None
    #: This process's CPU time (``time.process_time()``) at
    #: ``opened_at`` and ``campaign_end``.
    cpu_opened: float = 0.0
    cpu_campaign_end: float = 0.0
    db_bytes: int = 0
    result: object = None

    @property
    def ok(self) -> bool:
        return (
            self.error is None
            and self.status == "completed"
            and self.logged == self.planned
            and self.digest is not None
        )

    def timings(self, at_reference_speed: bool = True) -> dict[str, float]:
        """``setup_s``, ``exp_per_s``, ``campaign_s`` and ``analysis_s``;
        needs at least two ``experiment_done`` events."""
        speed = self.speed if at_reference_speed else None
        first, last = self.done_at[0], self.done_at[-1]
        return {
            "setup_s": scaled(speed, self.opened_at, first),
            "exp_per_s": (len(self.done_at) - 1) / scaled(speed, first, last),
            "campaign_s": scaled(speed, self.opened_at, self.campaign_end),
            "analysis_s": scaled(speed, self.analysis_start, self.analysis_end),
        }

    def sampling_cpu_share(self) -> float:
        """The speed sampler's share of this process's CPU time from
        opening the session to the end of the campaign."""
        cpu = self.cpu_campaign_end - self.cpu_opened
        if self.speed is None or cpu <= 0:
            return 0.0
        return self.speed.cpu(self.opened_at, self.campaign_end) / cpu


def _remove_db(path: Path) -> None:
    for suffix in ("", "-wal", "-shm", "-journal"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)


#: ``run_campaign`` options of the reference twin: one process, the
#: target's reference execution loop, no checkpoints, no pruning and no
#: observers.  The program documents its logged rows as identical to
#: this plain serial loop's under every other option.
REFERENCE_OPTIONS = {"workers": 1, "fast": False, "checkpoints": False}


def run_campaign_once(
    workload: Workload,
    seed: int,
    workdir: Path,
    workers: int = 1,
    sample_speed: bool = True,
    reference: bool = False,
) -> CampaignRun:
    """Open a session on a fresh database, run the workload's campaign
    on ``workers`` processes to completion, analyse it and check its
    rows.  With ``sample_speed`` the machine's speed is sampled
    throughout (speed.py).  With ``reference`` the campaign runs with
    :data:`REFERENCE_OPTIONS` instead of the workload's options and is
    not analysed.  Failures are recorded, not raised."""
    db_path = workdir / f"{workload.name}.db"
    _remove_db(db_path)
    if reference:
        options = dict(REFERENCE_OPTIONS)
    else:
        options = dict(workload.run_options, workers=workers)
    if workload.events and not reference:
        events_path = workdir / f"{workload.name}.events.jsonl"
        events_path.unlink(missing_ok=True)
        options["events"] = str(events_path)
    run = CampaignRun(planned=workload.experiments + 1)  # + the reference row
    clock = time.perf_counter
    progress = ProgressReporter(observers=[lambda _event: run.done_at.append(clock())])
    run.speed = SpeedSampler(sole_worker=workers == 1) if sample_speed else None
    try:
        with run.speed or contextlib.nullcontext():
            run.cpu_opened = time.process_time()
            run.opened_at = clock()
            with GoofiSession(db_path, progress=progress) as session:
                config = build_config(session, workload, seed)
                session.setup_campaign(config)
                run.result = session.run_campaign(config.name, **options)
                run.campaign_end = run.analysis_start = clock()
                run.cpu_campaign_end = time.process_time()
                if not reference:
                    analyse(session.db, workload, config.name)
                run.analysis_end = clock()
                run.status = session.db.load_campaign(config.name).status
                run.logged = session.db.count_experiments(config.name)
                prune = run.result.prune
                if prune and prune["divergences"]:
                    raise RuntimeError(f"prune divergences: {prune['divergences']}")
                run.digest = row_digest(session.db, config.name)
    except Exception as exc:  # one failed campaign must not end the run
        run.error = f"{type(exc).__name__}: {exc}"
    run.db_bytes = sum(
        Path(f"{db_path}{suffix}").stat().st_size
        for suffix in ("", "-wal")
        if Path(f"{db_path}{suffix}").exists()
    )
    _remove_db(db_path)
    return run
