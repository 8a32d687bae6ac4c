"""Tests for the analysis phase: classification and measures."""

from __future__ import annotations

import pytest

from repro.analysis.classify import (
    CATEGORY_DETECTED,
    CATEGORY_ESCAPED,
    CATEGORY_LATENT,
    CATEGORY_OVERWRITTEN,
    ESCAPE_TIMELINESS,
    ESCAPE_WRONG_OUTPUT,
    CampaignClassification,
    Classification,
    classify_campaign,
    classify_experiment,
    state_difference,
)
from repro.analysis.measures import (
    detection_coverage,
    effectiveness,
    failure_rate,
    mechanism_shares,
    per_group_breakdown,
    per_location_breakdown,
    per_time_breakdown,
    proportion,
)
from repro.core.errors import AnalysisError
from repro.db import ExperimentRecord

REFERENCE_STATE = {
    "termination": {"outcome": "workload_end", "cycle": 100, "iteration": 0},
    "final": {
        "scan": {"internal:regs.R1": 10, "internal:regs.R2": 20},
        "memory": {"16384": 5},
        "outputs": [[90, 1, 42]],
        "cycle": 100,
    },
}


def experiment(name: str, outcome: str = "workload_end", *, scan=None, memory=None,
               outputs=None, detection=None, location=None, cycle=50) -> ExperimentRecord:
    final = {
        "scan": scan if scan is not None else dict(REFERENCE_STATE["final"]["scan"]),
        "memory": memory if memory is not None else dict(REFERENCE_STATE["final"]["memory"]),
        "outputs": outputs if outputs is not None else [[90, 1, 42]],
        "cycle": 101,
    }
    fault = {
        "location": location
        or {"kind": "scan", "chain": "internal", "element": "regs.R1", "bit": 0},
        "trigger": {"trigger": "time", "cycle": cycle},
        "model": {"model": "transient_bitflip"},
        "injection_cycle": cycle,
        "applied": True,
    }
    return ExperimentRecord(
        experiment_name=name,
        campaign_name="camp",
        experiment_data={"technique": "scifi", "faults": [fault]},
        state_vector={
            "termination": {"outcome": outcome, "cycle": 100, "iteration": 0,
                            "detection": detection},
            "final": final,
        },
    )


class TestStateDifference:
    def test_identical_states_no_diff(self):
        assert state_difference(REFERENCE_STATE["final"], REFERENCE_STATE["final"]) == ()

    def test_scan_and_memory_diffs_found(self):
        observed = {
            "scan": {"internal:regs.R1": 11, "internal:regs.R2": 20},
            "memory": {"16384": 6},
        }
        diff = state_difference(REFERENCE_STATE["final"], observed)
        assert diff == ("mem:16384", "scan:internal:regs.R1")

    def test_missing_key_counts_as_diff(self):
        observed = {"scan": {"internal:regs.R1": 10}, "memory": {"16384": 5}}
        assert "scan:internal:regs.R2" in state_difference(
            REFERENCE_STATE["final"], observed
        )

    def test_cycle_differences_ignored(self):
        observed = dict(REFERENCE_STATE["final"], cycle=999)
        assert state_difference(REFERENCE_STATE["final"], observed) == ()

    def test_pre_flattened_reference_gives_same_keys(self):
        from repro.analysis.classify import _comparable_state

        reference = REFERENCE_STATE["final"]
        flat = _comparable_state(reference)
        for observed in (
            reference,
            {"scan": {"internal:regs.R1": 11}, "memory": {"16384": 5, "16388": 1}},
            {"scan": {"internal:regs.R1": 10, "internal:regs.R2": 20}},
        ):
            assert state_difference(reference, observed, flat) == state_difference(
                reference, observed
            )


class TestClassifyExperiment:
    def test_detected(self):
        record = experiment(
            "e1",
            outcome="error_detected",
            detection={"mechanism": "icache_parity", "cycle": 60, "pc": 3},
        )
        verdict = classify_experiment(REFERENCE_STATE, record)
        assert verdict.category == CATEGORY_DETECTED
        assert verdict.mechanism == "icache_parity"
        assert verdict.effective

    def test_timeout_is_escaped_timeliness(self):
        verdict = classify_experiment(REFERENCE_STATE, experiment("e1", outcome="timeout"))
        assert verdict.category == CATEGORY_ESCAPED
        assert verdict.escape_kind == ESCAPE_TIMELINESS

    def test_wrong_output_is_escaped(self):
        record = experiment("e1", outputs=[[90, 1, 43]])
        verdict = classify_experiment(REFERENCE_STATE, record)
        assert verdict.category == CATEGORY_ESCAPED
        assert verdict.escape_kind == ESCAPE_WRONG_OUTPUT

    def test_missing_output_is_escaped(self):
        verdict = classify_experiment(REFERENCE_STATE, experiment("e1", outputs=[]))
        assert verdict.category == CATEGORY_ESCAPED

    def test_output_timing_shift_alone_not_escaped(self):
        verdict = classify_experiment(
            REFERENCE_STATE, experiment("e1", outputs=[[95, 1, 42]])
        )
        assert verdict.category == CATEGORY_OVERWRITTEN

    def test_latent(self):
        record = experiment("e1", scan={"internal:regs.R1": 10, "internal:regs.R2": 99})
        verdict = classify_experiment(REFERENCE_STATE, record)
        assert verdict.category == CATEGORY_LATENT
        assert verdict.differing_keys == ("scan:internal:regs.R2",)
        assert not verdict.effective

    def test_overwritten(self):
        verdict = classify_experiment(REFERENCE_STATE, experiment("e1"))
        assert verdict.category == CATEGORY_OVERWRITTEN

    def test_malformed_record_rejected(self):
        record = ExperimentRecord(
            experiment_name="bad",
            campaign_name="camp",
            experiment_data={},
            state_vector={"nope": 1},
        )
        with pytest.raises(AnalysisError, match="malformed"):
            classify_experiment(REFERENCE_STATE, record)

    def test_unknown_outcome_rejected(self):
        record = experiment("e1", outcome="vaporised")
        with pytest.raises(AnalysisError, match="unknown outcome"):
            classify_experiment(REFERENCE_STATE, record)


class TestCampaignClassification:
    def make(self) -> CampaignClassification:
        return CampaignClassification(
            campaign_name="camp",
            classifications=[
                Classification("e0", CATEGORY_DETECTED, mechanism="icache_parity"),
                Classification("e1", CATEGORY_DETECTED, mechanism="icache_parity"),
                Classification("e2", CATEGORY_DETECTED, mechanism="mem_violation"),
                Classification("e3", CATEGORY_ESCAPED, escape_kind=ESCAPE_WRONG_OUTPUT),
                Classification("e4", CATEGORY_LATENT),
                Classification("e5", CATEGORY_OVERWRITTEN),
                Classification("e6", CATEGORY_OVERWRITTEN),
            ],
        )

    def test_counts(self):
        c = self.make()
        assert (c.detected, c.escaped, c.latent, c.overwritten) == (3, 1, 1, 2)
        assert c.effective == 4
        assert c.non_effective == 3
        assert c.total == 7

    def test_mechanism_breakdown(self):
        assert self.make().by_mechanism() == {"icache_parity": 2, "mem_violation": 1}

    def test_escape_breakdown(self):
        assert self.make().by_escape_kind() == {ESCAPE_WRONG_OUTPUT: 1}

    def test_summary_is_serialisable(self):
        import json

        summary = self.make().summary()
        assert json.loads(json.dumps(summary)) == summary


class TestProportions:
    def test_point_estimate(self):
        p = proportion(30, 100)
        assert p.estimate == pytest.approx(0.3)
        assert 0 < p.ci_low < 0.3 < p.ci_high < 1

    def test_extremes(self):
        assert proportion(0, 50).ci_low == 0.0
        assert proportion(50, 50).ci_high == 1.0

    def test_zero_trials(self):
        p = proportion(0, 0)
        assert (p.ci_low, p.ci_high) == (0.0, 1.0)

    def test_interval_narrows_with_samples(self):
        narrow = proportion(300, 1000)
        wide = proportion(3, 10)
        assert narrow.ci_high - narrow.ci_low < wide.ci_high - wide.ci_low

    def test_interval_contains_truth_mostly(self):
        """Clopper-Pearson is exact: coverage is at least nominal."""
        import numpy as np

        rng = np.random.default_rng(0)
        truth = 0.3
        hits = 0
        trials = 200
        for _ in range(trials):
            successes = rng.binomial(60, truth)
            p = proportion(int(successes), 60)
            hits += p.ci_low <= truth <= p.ci_high
        assert hits / trials >= 0.93

    def test_invalid_proportions_rejected(self):
        with pytest.raises(AnalysisError):
            proportion(5, 3)
        with pytest.raises(AnalysisError):
            proportion(-1, 3)

    def test_measures_on_classification(self):
        c = TestCampaignClassification().make()
        assert detection_coverage(c).estimate == pytest.approx(3 / 4)
        assert effectiveness(c).estimate == pytest.approx(4 / 7)
        assert failure_rate(c).estimate == pytest.approx(1 / 7)
        shares = mechanism_shares(c)
        assert shares["icache_parity"].estimate == pytest.approx(2 / 3)


class TestEndToEndClassification:
    def test_campaign_classification_from_db(self, session):
        from tests.conftest import make_campaign

        make_campaign(session, "c", workload="bubble_sort", num_experiments=40,
                      locations=("internal:regs.*", "internal:icache.*"), seed=5)
        session.run_campaign("c")
        classification = classify_campaign(session.db, "c")
        assert classification.total == 40
        total = (classification.detected + classification.escaped
                 + classification.latent + classification.overwritten)
        assert total == 40
        # Cache faults exist in the plan, so some parity detections are
        # all but certain with 40 experiments across icache lines.
        assert classification.detected > 0

    def test_breakdowns_cover_all_experiments(self, session):
        from tests.conftest import make_campaign

        make_campaign(session, "c", num_experiments=30, seed=6)
        session.run_campaign("c")
        by_location = per_location_breakdown(session.db, "c")
        assert sum(b.total for b in by_location) == 30
        by_group = per_group_breakdown(session.db, "c")
        assert sum(b.total for b in by_group) == 30
        assert all(b.group == "regs" for b in by_group)
        by_time = per_time_breakdown(session.db, "c", bins=4)
        assert sum(b.total for b in by_time) == 30
        assert len(by_time) <= 4


class TestLazyPropagationImport:
    def test_networkx_not_imported_eagerly(self):
        """``repro.analysis.propagation`` pulls in networkx (~0.2 s) —
        every ``goofi run`` would pay that if the package imported it
        eagerly.  It must load only when a propagation name is touched."""
        import subprocess
        import sys
        from pathlib import Path

        import repro

        source_root = Path(repro.__file__).resolve().parents[1]
        script = (
            "import sys\n"
            "import repro\n"
            "import repro.analysis\n"
            "assert 'networkx' not in sys.modules, 'networkx imported eagerly'\n"
            "assert 'repro.analysis.propagation' not in sys.modules\n"
            "from repro.analysis import analyze_propagation\n"
            "assert 'networkx' in sys.modules\n"
        )
        subprocess.run(
            [sys.executable, "-c", script], check=True,
            env={"PYTHONPATH": str(source_root)},
        )

    def test_lazy_names_still_exported(self):
        import repro.analysis as analysis

        for name in ("PropagationAnalysis", "TimelinePoint",
                     "analyze_propagation", "propagation_summary"):
            assert name in analysis.__all__
            assert getattr(analysis, name) is not None

    def test_unknown_attribute_still_raises(self):
        import repro.analysis as analysis

        with pytest.raises(AttributeError, match="no attribute"):
            analysis.does_not_exist


class TestTimeBreakdownBinOrdering:
    def test_bins_numerically_ordered_for_long_campaigns(self):
        """Regression: bin labels used to be fixed-width formatted and
        lexicographically sorted, which scrambles the time axis once
        injection cycles exceed the label width (">1e6-cycle campaigns:
        '[10000000, ...' sorts before '[2000000, ...')."""
        from repro.db import (
            CampaignRecord,
            GoofiDatabase,
            TargetSystemRecord,
            reference_name,
        )

        db = GoofiDatabase(":memory:")
        db.save_target(
            TargetSystemRecord(target_name="t", test_card_name="c", config={})
        )
        db.save_campaign(
            CampaignRecord(campaign_name="camp", target_name="t", config={})
        )
        db.save_experiment(
            ExperimentRecord(
                experiment_name=reference_name("camp"),
                campaign_name="camp",
                experiment_data={"technique": "reference", "workload": "w"},
                state_vector=REFERENCE_STATE,
            )
        )
        cycles = [500_000, 2_000_000, 4_500_000, 7_000_000, 9_900_000, 12_000_000]
        for index, cycle in enumerate(cycles):
            db.save_experiment(experiment(f"e{index}", cycle=cycle))
        breakdown = per_time_breakdown(db, "camp", bins=10)
        starts = [int(b.group[1:].split(",")[0]) for b in breakdown]
        assert starts == sorted(starts)
        assert sum(b.total for b in breakdown) == len(cycles)
        # Every label is a plain half-open range with no alignment padding.
        for entry in breakdown:
            assert entry.group == entry.group.replace(" ,", ",")
            start, end = entry.group.strip("[)").split(", ")
            assert int(end) - int(start) > 0


# ----------------------------------------------------------------------
# The single analysis pass: every view reads one memoised pass
# ----------------------------------------------------------------------
def stored_campaign(records=(), path=":memory:"):
    """A database holding campaign ``camp``: its reference row plus
    ``records``."""
    from repro.db import CampaignRecord, GoofiDatabase, TargetSystemRecord, reference_name

    db = GoofiDatabase(path)
    db.save_target(TargetSystemRecord(target_name="t", test_card_name="c", config={}))
    db.save_campaign(CampaignRecord(campaign_name="camp", target_name="t", config={}))
    db.save_experiment(
        ExperimentRecord(
            experiment_name=reference_name("camp"),
            campaign_name="camp",
            experiment_data={"technique": "reference", "workload": "w"},
            state_vector=REFERENCE_STATE,
        )
    )
    db.save_experiments(list(records))
    return db


def detected(name, detection_cycle, injection_cycle=50):
    return experiment(
        name,
        outcome="error_detected",
        detection={"mechanism": "icache_parity", "cycle": detection_cycle, "pc": 0},
        cycle=injection_cycle,
    )


def direct_per_row(db, name):
    """The views' inputs computed row by row, without the pass:
    (verdict, record) pairs, latency samples and skipped count."""
    from repro.analysis.latency import MissingDetectionCycle, _latency_of
    from repro.db import reference_name

    reference = db.load_experiment(reference_name(name))
    pairs, samples, skipped = [], [], 0
    for record in db.iter_experiments(name):
        if record.experiment_data.get("technique") == "reference":
            continue
        pairs.append((classify_experiment(reference.state_vector, record), record))
        try:
            sample = _latency_of(record, strict=True)
        except MissingDetectionCycle:
            skipped += 1
            continue
        if sample is not None:
            samples.append(sample)
    return pairs, samples, skipped


def direct_breakdown(pairs, key, label=str):
    """Per-group outcome counts over the first fault, from raw rows."""
    from collections import Counter

    from repro.analysis.measures import GroupBreakdown

    groups: dict = {}
    for verdict, record in pairs:
        faults = record.experiment_data.get("faults") or []
        if faults:
            groups.setdefault(key(faults[0]), Counter())[verdict.category] += 1
    return [
        GroupBreakdown(
            label(group), sum(counts.values()), counts["detected"],
            counts["escaped"], counts["latent"], counts["overwritten"],
        )
        for group, counts in sorted(groups.items())
    ]


def element_of(fault):
    from repro.core.locations import Location

    return Location.from_dict(fault["location"]).element_key


def group_of(fault):
    key = element_of(fault)
    return "memory" if key.startswith("memory:") else key.partition(":")[2].split(".")[0]


class TestSinglePassEquivalence:
    CAMPAIGNS = {
        "scifi": dict(
            workload="bubble_sort", num_experiments=60, seed=5,
            locations=("internal:regs.*", "internal:icache.*", "internal:ctrl.*"),
        ),
        "swifi": dict(
            workload="matmul", technique="swifi_preruntime", num_experiments=60,
            seed=9, locations=("memory:data",),
        ),
    }

    @pytest.mark.parametrize("kind", sorted(CAMPAIGNS))
    def test_views_equal_direct_per_row_computation(self, session, kind):
        import re

        from tests.conftest import make_campaign
        from repro.analysis import (
            campaign_report,
            detection_latencies,
            export_rows,
            format_classification,
            format_latency_report,
            format_measures,
            render_campaign_report,
        )
        from repro.analysis.latency import LatencyStatistics
        from repro.analysis.reports import format_breakdowns

        make_campaign(session, "c", **self.CAMPAIGNS[kind])
        session.run_campaign("c", prune=True)
        db = session.db
        pairs, samples, skipped = direct_per_row(db, "c")
        direct = CampaignClassification("c", [verdict for verdict, _ in pairs])
        # The campaigns cover every outcome between them, and pruned rows.
        assert sum(record.pruned for _, record in pairs) > 0
        assert direct.escaped and direct.latent and direct.overwritten
        if kind == "scifi":
            assert direct.detected and samples

        assert classify_campaign(db, "c").summary() == direct.summary()
        assert classify_campaign(db, "c").classifications == direct.classifications
        statistics = detection_latencies(db, "c")
        assert (statistics.samples, statistics.skipped) == (samples, skipped)

        by_location = direct_breakdown(pairs, element_of)
        by_group = direct_breakdown(pairs, group_of)
        top = max(r.experiment_data["faults"][0]["injection_cycle"] for _, r in pairs) + 1
        width = max(1, -(-top // 8))
        by_time = direct_breakdown(
            pairs, lambda fault: fault["injection_cycle"] // width,
            label=lambda index: f"[{index * width}, {(index + 1) * width})",
        )
        assert per_location_breakdown(db, "c") == by_location
        assert per_group_breakdown(db, "c") == by_group
        assert per_time_breakdown(db, "c", bins=8) == by_time

        sections = [
            format_classification(direct), "", format_measures(direct), "",
            format_breakdowns(by_group, "Outcome mix per location group:"), "",
            format_breakdowns(by_time, "Outcome mix per injection-time bin (cycles):"),
        ]
        if direct.detected:
            sections += ["", format_latency_report(
                LatencyStatistics(samples, skipped), "Detection latency (cycles):"
            )]
        assert campaign_report(db, "c") == "\n".join(sections)

        rendered = re.findall(r'<section id="(\w+)">', render_campaign_report(db, "c"))
        assert rendered == ["overview", "coverage"] + (["latency"] if samples else [])

        latencies = {sample.experiment_name: sample.latency for sample in samples}
        assert [
            (row["experiment"], row["category"], row["detection_latency"])
            for row in export_rows(db, "c")
        ] == [
            (record.experiment_name, verdict.category,
             latencies.get(record.experiment_name, ""))
            for verdict, record in pairs
        ]

    def test_views_share_one_pass(self, tmp_path):
        from repro.analysis import campaign_report, detection_latencies, render_campaign_report
        from repro.analysis.classify import campaign_pass

        db = stored_campaign(
            [detected("camp/e0", 60), experiment("camp/e1", outputs=[])],
            path=tmp_path / "one.db",
        )
        reads = []
        iter_experiments = db.iter_experiments
        db.iter_experiments = lambda name: reads.append(name) or iter_experiments(name)
        first = campaign_pass(db, "camp")
        classify_campaign(db, "camp")
        campaign_report(db, "camp")
        detection_latencies(db, "camp")
        render_campaign_report(db, "camp")
        assert campaign_pass(db, "camp") is first
        assert reads == ["camp"]


class TestSinglePassMemo:
    def test_new_result_after_save_experiments(self):
        db = stored_campaign([experiment("camp/e0")])
        assert classify_campaign(db, "camp").total == 1
        db.save_experiments([experiment("camp/e1", outputs=[])])
        result = classify_campaign(db, "camp")
        assert (result.total, result.escaped) == (2, 1)

    def test_new_result_after_replace_experiment(self):
        db = stored_campaign([experiment("camp/e0")])
        assert classify_campaign(db, "camp").overwritten == 1
        db.replace_experiment(detected("camp/e0", 60))
        assert classify_campaign(db, "camp").detected == 1
        from repro.analysis import detection_latencies

        assert [s.latency for s in detection_latencies(db, "camp").samples] == [10]

    def test_new_result_after_delete_campaign_experiments(self):
        from repro.analysis import detection_latencies
        from repro.db import DatabaseError

        db = stored_campaign([detected("camp/e0", 60)])
        assert detection_latencies(db, "camp").count == 1
        db.delete_campaign_experiments("camp")
        assert detection_latencies(db, "camp").count == 0
        with pytest.raises(DatabaseError, match="no experiment"):
            classify_campaign(db, "camp")

    def test_new_result_after_commit_by_another_connection(self, tmp_path):
        from repro.db import GoofiDatabase

        path = tmp_path / "shared.db"
        db = stored_campaign([experiment("camp/e0")], path=path)
        assert classify_campaign(db, "camp").total == 1
        with GoofiDatabase(path) as other:
            other.save_experiments([experiment("camp/e1", outputs=[])])
        result = classify_campaign(db, "camp")
        assert (result.total, result.escaped) == (2, 1)

    def test_mutating_a_result_does_not_leak(self):
        from repro.analysis import detection_latencies

        db = stored_campaign([detected("camp/e0", 60), experiment("camp/e1")])
        classify_campaign(db, "camp").classifications.clear()
        detection_latencies(db, "camp").samples.clear()
        assert classify_campaign(db, "camp").total == 2
        assert detection_latencies(db, "camp").count == 1


class TestSinglePassErrorPlacement:
    def test_detection_before_injection(self):
        from repro.analysis import detection_latencies

        db = stored_campaign([detected("camp/e0", 40, injection_cycle=50)])
        assert classify_campaign(db, "camp").detected == 1
        with pytest.raises(AnalysisError, match="before its injection"):
            detection_latencies(db, "camp")

    def test_missing_detection_cycle(self):
        from repro.analysis import detection_latencies
        from repro.analysis.latency import MissingDetectionCycle

        db = stored_campaign([detected("camp/e0", None), detected("camp/e1", 70)])
        assert classify_campaign(db, "camp").detected == 2
        statistics = detection_latencies(db, "camp")
        assert (statistics.count, statistics.skipped) == (1, 1)
        with pytest.raises(MissingDetectionCycle, match="no cycle"):
            detection_latencies(db, "camp", strict=True)

    def test_classification_errors_stay_in_classification(self):
        """A row ``classify_campaign`` rejects still yields latencies,
        and a campaign without a reference row still has latencies."""
        from repro.analysis import detection_latencies
        from repro.db import DatabaseError

        db = stored_campaign([experiment("camp/e0", outcome="vaporised"),
                              detected("camp/e1", 70)])
        with pytest.raises(AnalysisError, match="unknown outcome"):
            classify_campaign(db, "camp")
        assert detection_latencies(db, "camp").count == 1
        db.delete_campaign_experiments("camp")
        db.save_experiments([detected("camp/e2", 80)])
        with pytest.raises(DatabaseError):
            classify_campaign(db, "camp")
        assert detection_latencies(db, "camp").count == 1
