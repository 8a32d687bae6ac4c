#!/usr/bin/env python3
"""Campaign benchmark for the GOOFI reproduction.

Run from the root of a checkout::

    python3 campaignbench/run.py --workload scifi_serial --seed 1 --seconds 10 --trace 0

A run first runs the workload's campaign once on the program's plain
serial path (the reference twin) to fix the rows every measured
campaign must reproduce.  It then measures a closed loop: one benchmark
process starts a campaign, waits for it, analyses it, checks its rows,
and repeats on a fresh file-backed database while another campaign
fits in ``--seconds`` (at least three campaigns; the twin's time counts
toward ``--seconds``).  ``--trace 0`` reports the end-to-end metrics:
medians over the campaigns, corrected to the reference machine speed
of speed.py.  ``--trace 1`` alternates untraced and traced campaigns
and reports the per-layer metrics of the traced ones.  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` counts
planned rows (reference row included) over every campaign of the run,
the twin's too; a row not logged, or every row of a campaign that
raised, ended other than ``completed``, or logged another row digest
than the twin's, counts as failed.
The exit code is 0 only when nothing failed.  See README.md in this
directory for the metric table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".campaignbench"

#: Every run measures at least this many campaigns, so medians exist.
MIN_CAMPAIGNS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "exp_per_s": "exp/s",
    "campaign_s": "s",
    "analysis_s": "s",
    "peak_rss_mb": "MiB",
    "db_bytes_per_exp": "B",
}


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run
    against anything else (such as an installed copy)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"campaignbench: no program source at {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"campaignbench: imported repro from {repro.__file__}, not {src}")


def machine_block(seed: int, sizes: dict) -> dict:
    import numpy
    import sqlite3

    from workloads import campaign_seed

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git unavailable)"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed,
        "campaign_seed": campaign_seed(seed),
        "campaign_sizes": sizes,
    }


def reset_peak_rss() -> None:
    """Reset this process's peak RSS (Linux ``VmHWM``) to its current RSS."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """Peak RSS of this process since :func:`reset_peak_rss` plus that of
    its largest child, MiB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        own = next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


class Ledger:
    """Attempted and failed rows, and the row digest every campaign of
    the run must reproduce: the first one seen, the reference twin's."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.expected_digest: str | None = None
        self.problems: list[str] = []

    def check(self, label: str, run) -> None:
        self.attempted += run.planned
        if self.expected_digest is None and run.digest is not None:
            self.expected_digest = run.digest
        problem = None
        if run.error is not None:
            problem = f"raised {run.error}"
        elif run.status != "completed":
            problem = f"ended {run.status!r}"
        elif run.logged > run.planned:
            problem = f"logged {run.logged} rows, more than the {run.planned} planned"
        elif run.digest != self.expected_digest:
            problem = f"row digest {run.digest[:16]} != {self.expected_digest[:16]}"
        if problem is not None:
            self.failed += run.planned
        else:
            self.failed += run.planned - run.logged
            if run.logged != run.planned:
                problem = f"logged {run.logged} of {run.planned} planned rows"
        if problem is not None:
            self.problems.append(f"{label}: {problem}")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(args, workload, workdir: Path, ledger: Ledger) -> tuple[dict, dict]:
    """Run the reference twin and the closed loop; return (metrics, details)."""
    from layers import UNITS, UNMEASURED_PARALLEL, layer_metrics, percentile
    from tracing import Tracer
    from workloads import run_campaign_once

    workers = min(workload.workers, os.cpu_count() or 1)
    started = time.perf_counter()
    run = run_campaign_once(workload, args.seed, workdir, sample_speed=False, reference=True)
    ledger.check("reference twin", run)
    # The twin's memory is not the measured campaigns'.
    reset_peak_rss()
    traced_workload = workload
    if args.trace and workers > 1:
        # Worker-side layers come from the program's metrics snapshot.
        traced_workload = replace(
            workload, run_options=dict(workload.run_options, telemetry="metrics")
        )
    untraced, traced, layer_runs, gaps = [], [], [], []
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.calibrate()
    index = 0
    durations: list[float] = []
    # Start another campaign only if a typical one still fits in the run.
    while index < MIN_CAMPAIGNS or (
        time.perf_counter() - started + _median(durations) <= args.seconds
    ):
        campaign_started = time.perf_counter()
        trace_this = tracer is not None and index % 2 == 1
        if trace_this:
            tracer.begin(f"{workload.name}-seed{args.seed}-campaign{index}")
            with tracer:
                run = run_campaign_once(
                    traced_workload, args.seed, workdir, workers, sample_speed=False
                )
        else:
            # A traced run takes no speed samples at all, because the
            # sampler's signal handler would land inside the spans; its
            # tracing overhead compares raw wall times.
            run = run_campaign_once(
                workload, args.seed, workdir, workers, sample_speed=tracer is None
            )
        durations.append(time.perf_counter() - campaign_started)
        ledger.check(f"campaign {index}{' (traced)' if trace_this else ''}", run)
        index += 1
        if not run.ok or len(run.done_at) < 2:
            continue
        if trace_this:
            traced.append(run)
            layer_runs.append(layer_metrics(tracer, run, workers))
            gaps.extend(b - a for a, b in zip(run.done_at, run.done_at[1:]))
        else:
            untraced.append(run)

    details: dict = {"campaigns": index}
    if not untraced or (tracer is not None and not traced):
        return {}, details
    if tracer is None:
        per_campaign = [run.timings() for run in untraced]
        wall = [run.timings(at_reference_speed=False) for run in untraced]
        metrics = {name: _median([t[name] for t in per_campaign]) for name in per_campaign[0]}
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics["db_bytes_per_exp"] = (
            _median([run.db_bytes for run in untraced]) / workload.experiments
        )
        details["per_campaign"] = per_campaign
        details["per_campaign_wall"] = wall
        details["wall"] = {name: _median([t[name] for t in wall]) for name in wall[0]}
        details["speed_factor"] = _median(
            [run.speed.factor(run.opened_at, run.analysis_end) for run in untraced]
        )
        details["sampling_cpu_share"] = _median([run.sampling_cpu_share() for run in untraced])
        return {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}, details

    metrics = {name: _median([run[name] for run in layer_runs]) for name in layer_runs[0]}
    metrics["algorithms.exp_us_p50"] = 1e6 * percentile(gaps, 0.50)
    metrics["algorithms.exp_us_p99"] = 1e6 * percentile(gaps, 0.99)
    metrics["algorithms.exp_samples"] = len(gaps)
    metrics["tracing.overhead_s"] = _median(
        [run.timings()["campaign_s"] for run in traced]
    ) - _median([run.timings()["campaign_s"] for run in untraced])
    details["unmeasured"] = UNMEASURED_PARALLEL if workers > 1 else {}
    details["tracer_cost_us"] = {
        "inside": 1e6 * tracer.cost_inside,
        "outside": 1e6 * tracer.cost_outside,
        "passthrough": 1e6 * tracer.cost_passthrough,
    }
    span_file = OUT / "spans" / f"{workload.name}-seed{args.seed}.jsonl"
    tracer.write(span_file)
    details["span_file"] = os.path.relpath(span_file, ROOT)
    return {name: (metrics[name], unit) for name, unit in UNITS.items()}, details


def run_workload(args, workload) -> tuple[Ledger, dict]:
    """Measure one workload, print its block and write its results file;
    return its ledger and its metrics as reported in the JSON line."""
    from workloads import WORKLOADS

    workdir = OUT / "work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    try:
        metrics, details = measure(args, workload, workdir, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not metrics:
        ledger.problems.append("no campaign produced metrics")
        ledger.failed = max(ledger.failed, 1)
        ledger.attempted = max(ledger.attempted, 1)

    sizes = {name: w.experiments for name, w in WORKLOADS.items()}
    machine = machine_block(args.seed, sizes)
    fail_ratio = ledger.failed / ledger.attempted
    reported = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(f"campaignbench {workload.name} seed={args.seed} trace={args.trace}")
    print(f"  workload: {workload.why}")
    print("  machine: " + json.dumps(machine, sort_keys=True))
    print(f"  campaigns: {details.get('campaigns', 0)} of {workload.experiments} experiments")
    print(f"  row digest (reference twin): {ledger.expected_digest}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.4f} {unit}")
    print(f"  {'fail_ratio':<34} {fail_ratio:>14.4f} 1")
    if "wall" in details:
        print(
            f"  machine speed factor (median): {details['speed_factor']:.3f}; "
            f"sampling share of this process's campaign CPU: "
            f"{details['sampling_cpu_share']:.3f}; unscaled:"
        )
        for name, value in details["wall"].items():
            print(f"    {name:<32} {value:>14.4f} {END_TO_END_UNITS[name]}")
    if "tracer_cost_us" in details:
        costs = ", ".join(f"{name} {us:.3f} us" for name, us in details["tracer_cost_us"].items())
        print(f"  tracer cost per call, taken out of self times: {costs}")
    for name, reason in details.get("unmeasured", {}).items():
        print(f"  not measured from outside: {name}: {reason}")
    if "span_file" in details:
        print(f"  spans: {details['span_file']}")
    for problem in ledger.problems:
        print(f"  FAILED {problem}")

    results = OUT / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(
        json.dumps(
            {
                "machine": machine,
                "workload": workload.name,
                "metrics": reported,
                "fail_ratio": fail_ratio,
                "problems": ledger.problems,
                "digest": ledger.expected_digest,
                **details,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    return ledger, reported


def stop_resource_tracker() -> None:
    """Stop Python's ``multiprocessing`` resource tracker and wait for it.

    A parallel campaign joins its workers itself, but its shared-memory
    segment starts the tracker, which would otherwise outlive this
    process.  Stopping it closes its pipe and reaps it; a later parallel
    campaign would start a new one."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, help="a workload name, or 'all' to run each in turn"
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict = {}
    try:
        for name in names:
            ledger, reported = run_workload(args, WORKLOADS[name])
            attempted += ledger.attempted
            failed += ledger.failed
            if len(names) == 1:
                metrics = reported
            else:
                metrics.update({f"{name}.{metric}": value for metric, value in reported.items()})
    finally:
        stop_resource_tracker()
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
