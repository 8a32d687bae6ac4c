"""Tests for the campaign coordinator and its two executors.

One coordinator prepares every campaign and ingests one message stream;
the in-process executor (``workers == 1``) and the process pool
(``workers > 1``) only decide where the experiments run.  So every
record kind must reach every configured sink the same way at any worker
count, and options that used to live in one engine only (checkpoint
statistics, plugin techniques) must work in both.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.core import parallel, plugins
from repro.core.algorithms import FaultInjectionAlgorithms
from repro.core.events import iter_jsonl
from tests.conftest import make_campaign


def rows_by_name(db, campaign: str) -> dict:
    return {
        record.experiment_name.split("/", 1)[1]: (
            record.experiment_data,
            record.state_vector,
            record.parent_experiment,
        )
        for record in db.iter_experiments(campaign)
    }


def relative(name: str) -> str:
    return name.split("/", 1)[1]


class EmiAlgorithms(FaultInjectionAlgorithms):
    """A plugin technique as docs/extending.md describes it: a subclass
    adding an experiment body, registered under its own name.  Module
    level, so worker processes can build it too."""

    def _run_emi_experiment(self, config, spec, trace):
        return self._run_scifi_experiment(config, spec, trace)


@pytest.fixture
def emi_technique():
    plugins.register_technique("emi_burst", "_run_emi_experiment")
    yield "emi_burst"
    plugins._TECHNIQUES.pop("emi_burst", None)


class TestCheckpointStats:
    def test_reported_at_any_worker_count(self, session):
        stats = {}
        for workers in (1, 2):
            name = f"w{workers}"
            make_campaign(session, name, workload="bubble_sort", num_experiments=12, seed=5)
            result = session.run_campaign(
                name, workers=workers, checkpoints=True, telemetry="metrics"
            )
            assert result.checkpoint_stats is not None
            assert result.checkpoint_stats["saves"] > 0
            counters = result.telemetry["counters"]
            for key, value in result.checkpoint_stats.items():
                assert counters[f"checkpoint.cache.{key}"] == value
            stats[workers] = result.checkpoint_stats
        assert set(stats[1]) == set(stats[2])

    def test_stats_report_shows_pool_evictions(self, session):
        make_campaign(session, "c", workload="bubble_sort", num_experiments=12, seed=6)
        session.algorithms.checkpoint_capacity = 1
        try:
            result = session.run_campaign(
                "c", workers=2, checkpoints=True, telemetry="metrics"
            )
        finally:
            session.algorithms.checkpoint_capacity = 8
        evictions = result.checkpoint_stats["evictions"]
        assert evictions > 0
        assert f"{evictions} evictions" in session.stats("c")


class TestPluginTechnique:
    def test_rows_equal_at_one_and_two_workers(self, session, emi_technique):
        session.algorithms = EmiAlgorithms(session.target, session.db, session.progress)
        rows = {}
        for workers in (1, 2):
            name = f"emi{workers}"
            make_campaign(
                session, name, technique=emi_technique, num_experiments=8, seed=7
            )
            result = session.run_campaign(name, workers=workers)
            assert result.experiments_run == 8 and not result.aborted
            rows[workers] = rows_by_name(session.db, name)
        assert rows[1] == rows[2]
        techniques = {data["technique"] for data, _, _ in rows[1].values()}
        assert techniques == {"reference", emi_technique}

    def test_unregistered_body_rejected_before_running(self, session, emi_technique):
        from repro.core.errors import ConfigurationError

        make_campaign(session, "c", technique=emi_technique, num_experiments=4)
        with pytest.raises(ConfigurationError, match="_run_emi_experiment"):
            session.run_campaign("c", workers=2)
        assert session.db.count_experiments("c") == 0


class TestSinkMatrix:
    """Every record kind reaches every configured sink, equally, at one
    and two workers."""

    NUM = 10

    def run(self, session, tmp_path, workers):
        name = f"w{workers}"
        events = tmp_path / f"{name}.events.jsonl"
        spans_file = tmp_path / f"{name}.spans.jsonl"
        make_campaign(
            session, name, workload="bubble_sort", num_experiments=self.NUM, seed=8
        )
        result = session.run_campaign(
            name,
            workers=workers,
            telemetry="spans",
            telemetry_jsonl=str(spans_file),
            probes=True,
            resources=0.001,
            events=str(events),
        )
        assert result.experiments_run == self.NUM and not result.aborted
        return name, list(iter_jsonl(events)), [
            json.loads(line) for line in spans_file.read_text().splitlines()
        ]

    def test_every_kind_reaches_every_sink(self, session, tmp_path):
        seen = {}
        for workers in (1, 2):
            name, events, jsonl = self.run(session, tmp_path, workers)
            db = session.db
            table_spans = sorted(relative(r.experiment_name) for r in db.iter_spans(name))
            event_spans = sorted(
                relative(r["span"]["experiment"]) for r in events if r["kind"] == "span"
            )
            jsonl_spans = sorted(
                relative(r["experiment"]) for r in jsonl if r["kind"] == "span"
            )
            assert len(table_spans) == self.NUM
            assert table_spans == event_spans == jsonl_spans
            sample_events = [
                (r["sample"]["worker"], r["sample"]["seq"])
                for r in events
                if r["kind"] == "resource_sample"
            ]
            sample_rows = [
                (r.sample["worker"], r.sample["seq"])
                for r in db.iter_resource_samples(name)
            ]
            assert sample_rows and set(sample_rows) <= set(sample_events)
            assert len(sample_rows) == len(sample_events)
            planned = next(r for r in events if r["kind"] == "campaign_planned")
            finished = [r for r in events if r["kind"] == "experiment_finished"]
            assert len(finished) == planned["to_run"] == self.NUM
            probes = {
                relative(r.experiment_name): {
                    key: value for key, value in r.probe.items() if key != "experiment"
                }
                for r in db.iter_probes(name)
            }
            assert len(probes) == self.NUM
            seen[workers] = (rows_by_name(db, name), probes)
        assert seen[1] == seen[2]


VOLATILE = {"seq", "ts", "campaign", "elapsed_seconds", "rate", "eta_seconds"}


class TestEmptyPlan:
    def test_completed_resume_streams_alike(self, session, tmp_path):
        streams = {}
        for workers in (1, 2):
            name = f"w{workers}"
            make_campaign(session, name, num_experiments=6, seed=9)
            session.run_campaign(name)
            path = tmp_path / f"{name}.jsonl"
            result = session.run_campaign(
                name, resume=True, workers=workers, events=str(path)
            )
            assert result.experiments_run == 0 and not result.aborted
            assert session.db.load_campaign(name).status == "completed"
            streams[workers] = [
                {key: value for key, value in record.items() if key not in VOLATILE}
                for record in iter_jsonl(path)
            ]
        assert [r["kind"] for r in streams[1]] == [
            "campaign_planned", "campaign_started", "campaign_finished",
        ]
        planned = streams[1][0]
        assert planned["already_logged"] == planned["planned"] == 6
        assert streams[1] == streams[2]


class TestResumedTelemetry:
    def test_resume_adds_to_the_stored_snapshot(self, session):
        """A telemetered ``--resume`` keeps what the interrupted run
        recorded: the stored snapshot covers the whole campaign."""
        make_campaign(session, "c", num_experiments=24, seed=12)

        def abort_early(event):
            if event.completed >= 3:
                session.progress.end()

        session.progress.observers.append(abort_early)
        try:
            first = session.run_campaign("c", workers=2, telemetry="metrics")
        finally:
            session.progress.observers.remove(abort_early)
        assert first.aborted and first.experiments_run < 24
        second = session.run_campaign("c", resume=True, workers=2, telemetry="metrics")
        assert second.experiments_run == 24 - first.experiments_run
        stored = session.db.load_campaign_telemetry("c")
        assert stored["counters"]["experiments"] == 24
        assert stored["gauges"]["workers"] == 2
        # Rates in ``goofi stats`` divide by this: it spans both runs.
        assert stored["gauges"]["elapsed_seconds"] == pytest.approx(
            first.elapsed_seconds + second.elapsed_seconds
        )


class TestSpawnedWorkers:
    def test_rows_equal_serial(self, session, monkeypatch):
        """Workers started with ``spawn`` inherit nothing: the run
        options, the plan and the shared state must all travel."""
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the spawn start method")
        make_campaign(session, "serial", workload="bubble_sort", num_experiments=8, seed=10)
        session.run_campaign("serial", checkpoints=True, probes=True)
        monkeypatch.setattr(
            parallel, "_start_context", lambda: multiprocessing.get_context("spawn")
        )
        make_campaign(session, "spawned", workload="bubble_sort", num_experiments=8, seed=10)
        result = session.run_campaign("spawned", workers=2, checkpoints=True, probes=True)
        assert result.experiments_run == 8 and not result.aborted
        assert rows_by_name(session.db, "spawned") == rows_by_name(session.db, "serial")
        assert session.db.count_probes("spawned") == 8


class TestFailedFinalFlush:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_ends_aborted_and_raises(self, session, tmp_path, monkeypatch, workers):
        """A database writer failing on the last batch must not leave the
        campaign ``running``: the error surfaces, and the status and the
        event stream both say ``aborted``."""
        make_campaign(session, "c", num_experiments=6, seed=11)

        def broken(records):
            raise OSError("disk full")

        monkeypatch.setattr(session.db, "save_experiments", broken)
        path = tmp_path / "run.jsonl"
        with pytest.raises(OSError, match="disk full"):
            session.run_campaign("c", workers=workers, events=str(path))
        assert session.db.load_campaign("c").status == "aborted"
        assert list(iter_jsonl(path))[-1]["kind"] == "campaign_aborted"
