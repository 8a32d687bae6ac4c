"""Dependability measures derived from campaign classifications.

"The data in the database table LoggedSystemState is analysed in the
analysis phase in order to obtain various dependability measures" —
chiefly *error-detection coverage*, the probability that an effective
error is caught by the target's error-detection mechanisms.  Coverage
estimates from fault-injection sampling are proportions, so every
measure carries a Clopper–Pearson confidence interval.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from scipy import stats

from ..core.errors import AnalysisError
from ..db import GoofiDatabase
from .classify import CampaignClassification, ExperimentFacts, campaign_pass


@dataclass(frozen=True, slots=True)
class Proportion:
    """A binomial proportion with a two-sided confidence interval."""

    successes: int
    trials: int
    estimate: float
    ci_low: float
    ci_high: float
    confidence: float = 0.95

    def __str__(self) -> str:
        return (
            f"{self.estimate:.3f} "
            f"[{self.ci_low:.3f}, {self.ci_high:.3f}] "
            f"({self.successes}/{self.trials})"
        )


def proportion(successes: int, trials: int, confidence: float = 0.95) -> Proportion:
    """Clopper–Pearson (exact beta) interval for a binomial proportion."""
    if trials < 0 or successes < 0 or successes > trials:
        raise AnalysisError(f"bad proportion {successes}/{trials}")
    if trials == 0:
        return Proportion(0, 0, float("nan"), 0.0, 1.0, confidence)
    alpha = 1.0 - confidence
    estimate = successes / trials
    if successes == 0:
        low = 0.0
    else:
        low = float(stats.beta.ppf(alpha / 2, successes, trials - successes + 1))
    if successes == trials:
        high = 1.0
    else:
        high = float(stats.beta.ppf(1 - alpha / 2, successes + 1, trials - successes))
    return Proportion(successes, trials, estimate, low, high, confidence)


def detection_coverage(classification: CampaignClassification) -> Proportion:
    """Error-detection coverage: detected / effective errors."""
    return proportion(classification.detected, classification.effective)


def effectiveness(classification: CampaignClassification) -> Proportion:
    """Fraction of injected faults that produced an effective error."""
    return proportion(classification.effective, classification.total)


def failure_rate(classification: CampaignClassification) -> Proportion:
    """Fraction of injected faults that escaped detection and caused a
    failure (wrong output or timeliness violation)."""
    return proportion(classification.escaped, classification.total)


def mechanism_shares(classification: CampaignClassification) -> dict[str, Proportion]:
    """Per-mechanism share of all detected errors."""
    total_detected = classification.detected
    return {
        mechanism: proportion(count, total_detected)
        for mechanism, count in sorted(classification.by_mechanism().items())
    }


# ----------------------------------------------------------------------
# Per-location and per-time breakdowns
# ----------------------------------------------------------------------
def _first_fault_location(row: ExperimentFacts) -> str | None:
    return row.faults[0].element if row.faults else None


@dataclass(frozen=True, slots=True)
class GroupBreakdown:
    """Outcome counts for one group of experiments (a location or a
    time bin)."""

    group: str
    total: int
    detected: int
    escaped: int
    latent: int
    overwritten: int

    @property
    def effective(self) -> int:
        return self.detected + self.escaped

    def coverage(self) -> Proportion:
        return proportion(self.detected, self.effective)


def _aggregate(
    pairs: list[tuple], label=str
) -> list[GroupBreakdown]:
    """Aggregate (key, classification) pairs into per-group breakdowns.

    Groups are ordered by their *key* (string keys sort lexically, int
    keys numerically — which is what keeps time bins in order for
    campaigns of any length); ``label`` renders a key into the displayed
    group name.
    """
    groups: dict = defaultdict(Counter)
    for group, classification in pairs:
        groups[group][classification.category] += 1
    return [
        GroupBreakdown(
            group=label(group),
            total=sum(groups[group].values()),
            detected=groups[group]["detected"],
            escaped=groups[group]["escaped"],
            latent=groups[group]["latent"],
            overwritten=groups[group]["overwritten"],
        )
        for group in sorted(groups)
    ]


def _classified_groups(db: GoofiDatabase, campaign_name: str, key) -> list[tuple]:
    """(``key(row)``, verdict) for every classified row that has a key."""
    rows = campaign_pass(db, campaign_name).classified()
    return [(group, row.verdict) for row in rows if (group := key(row)) is not None]


def per_location_breakdown(
    db: GoofiDatabase, campaign_name: str
) -> list[GroupBreakdown]:
    """Outcome mix per injected location element (register, cache line,
    memory word, ...)."""
    return _aggregate(_classified_groups(db, campaign_name, _first_fault_location))


def _location_group(row: ExperimentFacts) -> str | None:
    key = _first_fault_location(row)
    if key is None:
        return None
    if key.startswith("memory:"):
        return "memory"
    _chain, _, element = key.partition(":")
    return element.split(".")[0]


def per_group_breakdown(
    db: GoofiDatabase, campaign_name: str
) -> list[GroupBreakdown]:
    """Outcome mix per location *group* (``regs``, ``ctrl``, ``icache``,
    ``dcache``, ``pins``, ``memory``) — the granularity at which the
    paper's analysis examples speak."""
    return _aggregate(_classified_groups(db, campaign_name, _location_group))


def per_time_breakdown(
    db: GoofiDatabase, campaign_name: str, bins: int = 10
) -> list[GroupBreakdown]:
    """Outcome mix across the injection-time axis, in equal cycle bins."""
    cycles = _classified_groups(
        db, campaign_name, lambda row: row.faults[0].cycle if row.faults else None
    )
    if not cycles:
        return []
    top = max(cycle for cycle, _ in cycles) + 1
    width = max(1, -(-top // bins))  # ceil
    # Group by the numeric bin index, not a formatted label: fixed-width
    # labels sort lexically, which scrambles bins once campaigns exceed
    # the label width (routine for >1e6-cycle runs).
    pairs = [(c // width, verdict) for c, verdict in cycles]
    return _aggregate(
        pairs, label=lambda index: f"[{index * width}, {(index + 1) * width})"
    )
