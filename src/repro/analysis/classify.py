"""Error classification — the analysis phase of §3.4.

The paper's taxonomy, reproduced exactly:

Effective errors
    * **Detected errors** — "errors that are detected by the error
      detection mechanisms of the target system.  These errors can be
      further classified into errors detected by each of the various
      mechanisms."
    * **Escaped errors** — "errors that escapes the error detection
      mechanisms causing failures such as incorrect results or
      timeliness violations."

Non-effective errors
    * **Latent errors** — a difference between the reference state and
      the experiment's final state is observable, but the run neither
      detected anything nor failed.
    * **Overwritten errors** — no difference at all between the
      reference final state and the experiment's final state.

Classification compares each ``LoggedSystemState`` row against the
campaign's reference row: outputs (the workload's result sequence)
decide wrong-result failures, the termination outcome decides detection
and timeliness, and the observed state vector decides latent vs
overwritten.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from ..core.errors import AnalysisError
from ..core.locations import Location
from ..db import ExperimentRecord, GoofiDatabase, reference_name

CATEGORY_DETECTED = "detected"
CATEGORY_ESCAPED = "escaped"
CATEGORY_LATENT = "latent"
CATEGORY_OVERWRITTEN = "overwritten"

ESCAPE_WRONG_OUTPUT = "wrong_output"
ESCAPE_TIMELINESS = "timeliness"

EFFECTIVE_CATEGORIES = (CATEGORY_DETECTED, CATEGORY_ESCAPED)
NON_EFFECTIVE_CATEGORIES = (CATEGORY_LATENT, CATEGORY_OVERWRITTEN)


@dataclass(frozen=True, slots=True)
class Classification:
    """The analysis verdict for one experiment."""

    experiment_name: str
    category: str
    #: EDM name for detected errors (``icache_parity``, ...).
    mechanism: str | None = None
    #: ``wrong_output`` or ``timeliness`` for escaped errors.
    escape_kind: str | None = None
    #: State-vector keys that differ from the reference (latent errors;
    #: also filled for escaped wrong-output errors).
    differing_keys: tuple[str, ...] = ()

    @property
    def effective(self) -> bool:
        return self.category in EFFECTIVE_CATEGORIES


def _output_values(state: dict) -> list[tuple[int, int]]:
    """The (port, value) result sequence, ignoring emission cycles: a
    fault that shifts timing without corrupting any result value is not
    a wrong-output failure (timing is judged by the watchdog)."""
    return [(port, value) for _cycle, port, value in state.get("outputs", [])]


def _comparable_state(state: dict) -> dict[str, int]:
    """Flatten the observed state for latent-difference comparison.

    Cycle and iteration counters are excluded: a fault may legitimately
    lengthen execution without leaving any erroneous state behind.
    """
    flat: dict[str, int] = {}
    for key, value in state.get("scan", {}).items():
        flat[f"scan:{key}"] = value
    for address, value in state.get("memory", {}).items():
        flat[f"mem:{address}"] = value
    return flat


def state_difference(
    reference: dict, observed: dict, reference_flat: dict | None = None
) -> tuple[str, ...]:
    """Keys whose values differ between two captured states (symmetric:
    a key missing on either side counts as differing).

    Equal ``scan`` and ``memory`` dicts differ nowhere, so only unequal
    states are flattened; ``reference_flat`` is the reference already
    flattened, for callers comparing many states against one.
    """
    if (reference.get("scan") == observed.get("scan")
            and reference.get("memory") == observed.get("memory")):
        return ()
    ref_flat = _comparable_state(reference) if reference_flat is None else reference_flat
    obs_flat = _comparable_state(observed)
    keys = ref_flat.keys() | obs_flat.keys()
    return tuple(sorted(k for k in keys if ref_flat.get(k) != obs_flat.get(k)))


def classify_experiment(
    reference_state: dict, record: ExperimentRecord, reference_flat: dict | None = None
) -> Classification:
    """Classify one experiment against the campaign's reference state.

    ``reference_state`` is the reference row's ``stateVector``;
    ``reference_flat`` optionally its final state, already flattened.
    """
    state_vector = record.state_vector
    try:
        termination = state_vector["termination"]
        final = state_vector["final"]
        ref_final = reference_state["final"]
    except KeyError as exc:
        raise AnalysisError(
            f"experiment {record.experiment_name!r} has a malformed state vector "
            f"(missing {exc})"
        ) from exc

    outcome = termination["outcome"]
    if outcome == "error_detected":
        detection = termination.get("detection") or {}
        return Classification(
            experiment_name=record.experiment_name,
            category=CATEGORY_DETECTED,
            mechanism=detection.get("mechanism", "unknown"),
        )
    if outcome == "timeout":
        return Classification(
            experiment_name=record.experiment_name,
            category=CATEGORY_ESCAPED,
            escape_kind=ESCAPE_TIMELINESS,
        )
    if outcome != "workload_end":
        raise AnalysisError(
            f"experiment {record.experiment_name!r} has unknown outcome {outcome!r}"
        )

    differing = state_difference(ref_final, final, reference_flat)
    if (final.get("outputs") != ref_final.get("outputs")
            and _output_values(final) != _output_values(ref_final)):
        return Classification(
            experiment_name=record.experiment_name,
            category=CATEGORY_ESCAPED,
            escape_kind=ESCAPE_WRONG_OUTPUT,
            differing_keys=differing,
        )
    if differing:
        return Classification(
            experiment_name=record.experiment_name,
            category=CATEGORY_LATENT,
            differing_keys=differing,
        )
    return Classification(
        experiment_name=record.experiment_name, category=CATEGORY_OVERWRITTEN
    )


@dataclass(slots=True)
class CampaignClassification:
    """Aggregated analysis of one campaign."""

    campaign_name: str
    classifications: list[Classification] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        return len(self.classifications)

    def count(self, category: str) -> int:
        return sum(1 for c in self.classifications if c.category == category)

    @property
    def detected(self) -> int:
        return self.count(CATEGORY_DETECTED)

    @property
    def escaped(self) -> int:
        return self.count(CATEGORY_ESCAPED)

    @property
    def latent(self) -> int:
        return self.count(CATEGORY_LATENT)

    @property
    def overwritten(self) -> int:
        return self.count(CATEGORY_OVERWRITTEN)

    @property
    def effective(self) -> int:
        return self.detected + self.escaped

    @property
    def non_effective(self) -> int:
        return self.latent + self.overwritten

    def by_mechanism(self) -> dict[str, int]:
        """Detected errors broken down per detection mechanism."""
        counts: Counter[str] = Counter()
        for c in self.classifications:
            if c.category == CATEGORY_DETECTED and c.mechanism:
                counts[c.mechanism] += 1
        return dict(counts)

    def by_escape_kind(self) -> dict[str, int]:
        counts: Counter[str] = Counter()
        for c in self.classifications:
            if c.category == CATEGORY_ESCAPED and c.escape_kind:
                counts[c.escape_kind] += 1
        return dict(counts)

    def summary(self) -> dict:
        return {
            "campaign": self.campaign_name,
            "total": self.total,
            "detected": self.detected,
            "escaped": self.escaped,
            "latent": self.latent,
            "overwritten": self.overwritten,
            "effective": self.effective,
            "non_effective": self.non_effective,
            "by_mechanism": self.by_mechanism(),
            "by_escape_kind": self.by_escape_kind(),
        }


class InjectedFault(NamedTuple):
    """One logged fault.  Names are interned: one copy for all rows."""

    element: str
    bit: int
    cycle: int
    applied: bool
    model: str

    @classmethod
    def of(cls, fault: dict) -> "InjectedFault":
        location = Location.from_dict(fault["location"])
        return cls(
            sys.intern(location.element_key),
            location.bit,
            int(fault["injection_cycle"]),
            bool(fault.get("applied", False)),
            sys.intern((fault.get("model") or {}).get("model", "")),
        )


@dataclass(frozen=True, slots=True)
class ExperimentFacts:
    """One logged row reduced to what the analysis views read: its
    verdict, its faults and its termination record.  The observed state,
    the bulk of a row, is not kept."""

    experiment_name: str
    #: ``None`` for a row :func:`classify_campaign` does not classify.
    verdict: Classification | None
    technique: str
    index: int | None
    faults: tuple[InjectedFault, ...]
    outcome: str
    end_cycle: int | None
    iteration: int | None
    #: The detecting mechanism and the detection's cycle (``None`` when
    #: the detection event carries none); meaningful for detected rows.
    mechanism: str | None
    detection_cycle: int | None

    @classmethod
    def of(cls, record: ExperimentRecord, verdict: Classification | None = None):
        data = record.experiment_data
        termination = record.state_vector.get("termination", {})
        detection = termination.get("detection") or {}
        return cls(
            record.experiment_name,
            verdict,
            sys.intern(data.get("technique", "")),
            data.get("index"),
            tuple(InjectedFault.of(fault) for fault in data.get("faults") or ()),
            sys.intern(termination.get("outcome") or ""),
            termination.get("cycle"),
            termination.get("iteration"),
            detection.get("mechanism", "unknown"),
            None if detection.get("cycle") is None else int(detection["cycle"]),
        )


@dataclass(frozen=True, slots=True)
class CampaignPass:
    """Every non-reference row of one campaign, classified in one
    streaming pass.  Shared by every analysis view; never mutated."""

    rows: tuple[ExperimentFacts, ...]
    #: What classifying the campaign raised (a missing reference, a
    #: malformed row); raised again by :meth:`classified`.
    error: Exception | None = None

    def classified(self) -> list[ExperimentFacts]:
        """The classified rows in logging order."""
        if self.error is not None:
            raise self.error
        return [row for row in self.rows if row.verdict is not None]


def _scan_campaign(db: GoofiDatabase, campaign_name: str) -> CampaignPass:
    # A classification error is kept, not raised: it fails the views
    # that need verdicts, while latencies still need every row's facts.
    reference = error = None
    try:
        reference = db.load_experiment(reference_name(campaign_name))
        reference_flat = _comparable_state(reference.state_vector.get("final", {}))
    except Exception as exc:
        error = exc
    rows = []
    for record in db.iter_experiments(campaign_name):
        if record.experiment_data.get("technique") == "reference":
            continue
        verdict = None
        if error is None and record.experiment_name != reference.experiment_name:
            try:
                verdict = classify_experiment(
                    reference.state_vector, record, reference_flat
                )
            except Exception as exc:
                error = exc
        rows.append(ExperimentFacts.of(record, verdict))
    return CampaignPass(tuple(rows), error)


def campaign_pass(db: GoofiDatabase, campaign_name: str) -> CampaignPass:
    """The campaign's single analysis pass, memoised on ``db`` until
    the stored data changes (:meth:`GoofiDatabase.memoised`)."""
    return db.memoised(campaign_name, lambda: _scan_campaign(db, campaign_name))


def classify_campaign(db: GoofiDatabase, campaign_name: str) -> CampaignClassification:
    """Classify every experiment of a campaign against its reference."""
    return CampaignClassification(
        campaign_name,
        [row.verdict for row in campaign_pass(db, campaign_name).classified()],
    )
