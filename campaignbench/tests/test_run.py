"""Tests of the campaign benchmark itself, at tiny campaign sizes.

Run from the root of the checkout::

    python -m pytest campaignbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from speed import REFERENCE_KERNEL_S, SpeedSampler, scaled  # noqa: E402
from repro.core.progress import ProgressReporter  # noqa: E402
from repro.targets.thor.interface import ThorTargetInterface  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "5", "--seconds", "0"]
#: Planned rows of a tiny campaign: 12 experiments and the reference row.
ROWS = 13


@pytest.fixture(autouse=True)
def tiny_campaigns(monkeypatch, tmp_path):
    # Results and spans of tiny runs must not overwrite real ones.
    monkeypatch.setattr(run, "OUT", tmp_path / ".campaignbench")
    monkeypatch.setattr(
        workloads,
        "WORKLOADS",
        {name: replace(w, experiments=ROWS - 1) for name, w in workloads.WORKLOADS.items()},
    )


def bench(capsys, workload: str, trace: int = 0) -> tuple[int, dict]:
    code = run.main(["--workload", workload, "--trace", str(trace), *TINY])
    last_line = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last_line)


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_emits_exactly_the_spec_metrics(capsys, workload, trace, section):
    code, result = bench(capsys, workload, trace)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0
    # The reference twin and at least three measured campaigns.
    assert result["attempted"] >= 4 * ROWS
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in SPEC[section]}


def _children(pid: int) -> list[int]:
    """Processes, zombies included, whose parent is ``pid``."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(stat.parent.name))
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs procfs")
def test_parallel_run_leaves_no_process_behind(capsys):
    code, _result = bench(capsys, "scifi_w2")
    assert code == 0
    assert _children(os.getpid()) == []


def test_speed_correction_drops_sampling_time_and_scales():
    sampler = SpeedSampler()
    # Two samples inside [10, 20): 0.5 s of wall, at half the reference speed.
    sampler.samples = [
        (11.0, 0.25, 2 * REFERENCE_KERNEL_S),
        (15.0, 0.25, 2 * REFERENCE_KERNEL_S),
        (30.0, 0.25, REFERENCE_KERNEL_S),
    ]
    assert scaled(sampler, 10.0, 20.0) == pytest.approx((10.0 - 0.5) * 0.5)
    assert scaled(None, 10.0, 20.0) == 10.0
    # No sample inside the interval: the factor of all samples applies.
    assert scaled(sampler, 40.0, 41.0) == pytest.approx(0.6)
    assert SpeedSampler().factor(0.0, 1.0) == 1.0
    # Workers keep working while the coordinator samples: scale only.
    sampler.sole_worker = False
    assert scaled(sampler, 10.0, 20.0) == pytest.approx(10.0 * 0.5)


def test_all_runs_every_workload_under_prefixed_names(capsys):
    code, result = bench(capsys, "all")
    assert code == 0
    assert result["correct"] is True
    assert set(result["metrics"]) == {
        f"{workload}.{metric['name']}"
        for workload in workloads.WORKLOADS
        for metric in SPEC["end_to_end"]
    }


def test_traced_run_restores_the_program():
    original = ThorTargetInterface.__dict__["wait_for_breakpoint"]
    from tracing import Tracer

    with Tracer():
        assert ThorTargetInterface.__dict__["wait_for_breakpoint"] is not original
    assert ThorTargetInterface.__dict__["wait_for_breakpoint"] is original
    assert "read_scan_chain" not in ThorTargetInterface.__dict__


def test_tracer_cost_is_taken_out_of_self_times():
    from tracing import Tracer

    tracer = Tracer()
    tracer.calibrate(calls=2000, repeats=3)
    costs = (tracer.cost_inside, tracer.cost_outside, tracer.cost_passthrough)
    assert all(0.0 <= cost < 1e-4 for cost in costs)
    assert tracer.cost_outside > 0.0


def test_doctored_row_digest_fails_the_command(capsys, monkeypatch):
    real = workloads.row_digest
    calls = []

    def doctored(db, name):
        calls.append(name)
        return "0" * 64 if len(calls) == 2 else real(db, name)

    monkeypatch.setattr(workloads, "row_digest", doctored)
    code, result = bench(capsys, "scifi_serial")
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == ROWS


def test_same_wrong_rows_on_every_campaign_fail_the_command(capsys, monkeypatch):
    # Every measured campaign runs the fast path and logs the same
    # corrupted rows; only the reference twin, on the reference loop,
    # logs the right ones.
    real = ThorTargetInterface.capture_state

    def corrupted(self, observation):
        state = real(self, observation)
        return dict(state, corrupted=1) if self.card.cpu.fast else state

    monkeypatch.setattr(ThorTargetInterface, "capture_state", corrupted)
    code, result = bench(capsys, "scifi_serial")
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] - ROWS


def test_aborted_campaign_fails_the_command(capsys, monkeypatch):
    real = ProgressReporter.experiment_done

    def ending(self, experiment_name, outcome):
        event = real(self, experiment_name, outcome)
        if self.completed == 5:
            self.end()
        return event

    monkeypatch.setattr(ProgressReporter, "experiment_done", ending)
    code, result = bench(capsys, "scifi_serial")
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "scifi_serial", *TINY],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
