"""Per-layer metrics of one traced campaign run.

Per-experiment figures (``*_us_per_exp``, ``*_frac``) are taken over
the steady-state window the end-to-end ``exp_per_s`` uses: from the
first to the last ``experiment_done`` event, over the experiments
finished after the first.  Times in that window are self times, so the
target layers, probes, events, resources, database writes and the
orchestration remainder (``algorithms.self_us_per_exp``) add up to the
window less the tracer's own calibrated cost (tracing.py).  Set-up
figures (``*_ms``) are whole-call durations over the run.  Under
``scifi_w2`` the worker-side layers come from the program's
metrics-mode telemetry snapshot, because spans recorded in a forked
worker cannot reach the benchmark without changing the program.
"""

from __future__ import annotations

import math
from collections import defaultdict

#: Name → unit, in report order.  ``BENCHMARK.json`` lists the same.
UNITS = {
    "targets.execution_us_per_exp": "us",
    "targets.instr_per_s": "1/s",
    "targets.injection_us_per_exp": "us",
    "targets.restore_us_per_exp": "us",
    "targets.save_us_per_exp": "us",
    "targets.setup_us_per_exp": "us",
    "targets.memory_us_per_exp": "us",
    "targets.readout_us_per_exp": "us",
    "targets.record_trace_ms": "ms",
    "checkpoint.hit_ratio": "1",
    "checkpoint.saves_per_exp": "1",
    "checkpoint.evictions_per_exp": "1",
    "campaign.plan_ms": "ms",
    "algorithms.reference_ms": "ms",
    "algorithms.exp_us_p50": "us",
    "algorithms.exp_us_p99": "us",
    "algorithms.exp_samples": "count",
    "algorithms.self_us_per_exp": "us",
    "liveness.prune_ms": "ms",
    "liveness.skip_ratio": "1",
    "liveness.spot_check_ratio": "1",
    "probes.golden_ms": "ms",
    "probes.us_per_exp": "us",
    "events.emit_us_per_exp": "us",
    "events.records_per_exp": "1",
    "resources.sample_us_per_exp": "us",
    "sharedstate.publish_ms": "ms",
    "parallel.worker_startup_ms": "ms",
    "parallel.coordinator_busy_frac": "1",
    "parallel.ingest_wait_frac": "1",
    "parallel.worker_busy_frac": "1",
    "db.write_us_per_row": "us",
    "db.write_us_per_record": "us",
    "db.rows_per_batch": "1",
    "db.read_us_per_row": "us",
    "analysis.classify_ms": "ms",
    "analysis.report_ms": "ms",
    "analysis.stats_ms": "ms",
    "analysis.propagation_ms": "ms",
    "analysis.html_ms": "ms",
    "workloads.env_us_per_exp": "us",
    "tracing.overhead_s": "s",
}

#: Telemetry phase timers that are worker busy time.
WORKER_PHASES = ("setup", "restore", "injection", "execution", "readout")

#: Metrics the parallel workload cannot measure from outside, and why.
UNMEASURED_PARALLEL = {
    "targets.save_us_per_exp": "save_state runs in the forked workers; their "
    "spans cannot reach the benchmark and the telemetry snapshot has no "
    "save timer",
    "targets.memory_us_per_exp": "read_memory/write_memory run in the forked "
    "workers and the telemetry snapshot has no memory timer",
    "checkpoint.evictions_per_exp": "workers keep their own checkpoint caches "
    "and the telemetry snapshot carries no eviction counter",
    "algorithms.self_us_per_exp": "worker-side orchestration is not visible; "
    "the value is the coordinator loop's self time per experiment",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(tracer, run, workers: int) -> dict[str, float]:
    """Every metric of :data:`UNITS` except the ones that need more than
    one run (``algorithms.exp_us_*``, ``tracing.overhead_s``), from the
    spans and reader counters ``tracer`` recorded during ``run``."""
    spans, read = tracer.spans, tracer.read
    first, last = run.done_at[0], run.done_at[-1]
    finished = len(run.done_at) - 1
    window = last - first
    self_time: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    window_counts: dict[str, int] = defaultdict(int)
    top_level = 0.0
    publish_end = None
    for span in spans:
        total[span.name] += span.duration
        calls[span.name] += 1
        counts[span.name] += span.count
        if span.name == "sharedstate.publish":
            publish_end = span.end
        if first < span.start <= last:
            self_time[span.name] += span.self_time
            inclusive[span.name] += span.duration
            window_counts[span.name] += span.count
            if span.parent is None:
                # The wrapper's cost around a top-level span is the
                # tracer's, not orchestration.
                top_level += span.duration + tracer.cost_outside

    def per_exp(name: str) -> float:
        return 1e6 * _ratio(self_time[name], finished)

    def ms(name: str) -> float:
        return 1e3 * total[name]

    result = run.result
    metrics = {
        "targets.execution_us_per_exp": per_exp("targets.execution"),
        "targets.instr_per_s": _ratio(
            window_counts["targets.execution"], self_time["targets.execution"]
        ),
        "targets.injection_us_per_exp": per_exp("targets.injection"),
        "targets.restore_us_per_exp": per_exp("targets.restore"),
        "targets.save_us_per_exp": per_exp("targets.save"),
        "targets.setup_us_per_exp": per_exp("targets.setup"),
        "targets.memory_us_per_exp": per_exp("targets.memory"),
        "targets.readout_us_per_exp": per_exp("targets.readout"),
        "targets.record_trace_ms": ms("targets.record_trace"),
        "campaign.plan_ms": ms("campaign.plan"),
        "algorithms.reference_ms": ms("algorithms.reference"),
        "algorithms.self_us_per_exp": 1e6 * _ratio(window - top_level, finished),
        "liveness.prune_ms": ms("liveness.prune"),
        "probes.golden_ms": ms("probes.golden"),
        "probes.us_per_exp": per_exp("probes.experiment"),
        "events.emit_us_per_exp": per_exp("events.emit"),
        "events.records_per_exp": _ratio(calls["events.emit"], len(run.done_at)),
        "resources.sample_us_per_exp": per_exp("resources.sample"),
        "sharedstate.publish_ms": ms("sharedstate.publish"),
        "db.write_us_per_row": 1e6
        * _ratio(total["db.write_rows"], counts["db.write_rows"]),
        "db.write_us_per_record": 1e6
        * _ratio(total["db.write_records"], counts["db.write_records"]),
        "db.rows_per_batch": _ratio(counts["db.write_rows"], calls["db.write_rows"]),
        "db.read_us_per_row": 1e6 * _ratio(read[0], read[1]),
        "analysis.classify_ms": ms("analysis.classify"),
        "analysis.report_ms": ms("analysis.report"),
        "analysis.stats_ms": ms("analysis.stats"),
        "analysis.propagation_ms": ms("analysis.propagation"),
        "analysis.html_ms": ms("analysis.html"),
        "workloads.env_us_per_exp": per_exp("workloads.env"),
        "parallel.worker_startup_ms": 0.0,
        "parallel.coordinator_busy_frac": 0.0,
        "parallel.ingest_wait_frac": 0.0,
        "parallel.worker_busy_frac": 0.0,
    }
    stats = result.checkpoint_stats or {}
    restores, misses = stats.get("restores", 0), stats.get("misses", 0)
    metrics["checkpoint.hit_ratio"] = _ratio(restores, restores + misses)
    metrics["checkpoint.saves_per_exp"] = _ratio(stats.get("saves", 0), len(run.done_at))
    metrics["checkpoint.evictions_per_exp"] = _ratio(
        stats.get("evictions", 0), len(run.done_at)
    )
    prune = result.prune or {}
    metrics["liveness.skip_ratio"] = _ratio(prune.get("skipped", 0), prune.get("planned", 0))
    metrics["liveness.spot_check_ratio"] = _ratio(
        prune.get("spot_checks", 0), prune.get("pruned", 0)
    )
    if workers > 1:
        metrics.update(_parallel_metrics(result.telemetry, run, inclusive, window, publish_end, workers))
    return metrics


def _parallel_metrics(snapshot, run, inclusive, window, publish_end, workers) -> dict:
    """Worker-side layers from the metrics-mode telemetry snapshot, and
    the coordinator's busy and waiting shares of the window."""
    timers = snapshot["timers"]
    counters = snapshot["counters"]
    experiments = len(run.done_at)

    def seconds(phase: str) -> float:
        return timers.get(f"phase.{phase}", {}).get("seconds", 0.0)

    def per_exp(phase: str) -> float:
        return 1e6 * _ratio(seconds(phase), experiments)

    startup = timers.get("phase.worker_startup", {"seconds": 0.0, "count": 0})
    restores = counters.get("checkpoint.restores", 0)
    misses = counters.get("checkpoint.misses", 0)
    worker_wall = run.done_at[-1] - (publish_end or run.done_at[0])
    busy = sum(inclusive[name] for name in ("db.write_rows", "db.write_records", "events.emit"))
    return {
        "targets.execution_us_per_exp": per_exp("execution"),
        "targets.instr_per_s": _ratio(counters.get("instructions", 0), seconds("execution")),
        "targets.injection_us_per_exp": per_exp("injection"),
        "targets.restore_us_per_exp": per_exp("restore"),
        "targets.setup_us_per_exp": per_exp("setup"),
        "targets.readout_us_per_exp": per_exp("readout"),
        "targets.save_us_per_exp": 0.0,
        "targets.memory_us_per_exp": 0.0,
        "checkpoint.hit_ratio": _ratio(restores, restores + misses),
        "checkpoint.saves_per_exp": _ratio(counters.get("checkpoint.saves", 0), experiments),
        "checkpoint.evictions_per_exp": 0.0,
        "parallel.worker_startup_ms": 1e3 * _ratio(startup["seconds"], startup["count"]),
        "parallel.coordinator_busy_frac": _ratio(busy, window),
        "parallel.ingest_wait_frac": _ratio(inclusive["parallel.ingest_wait"], window),
        "parallel.worker_busy_frac": _ratio(
            sum(seconds(phase) for phase in WORKER_PHASES), workers * worker_wall
        ),
    }
