"""Element-addressed scan flips against the paper's three-step path.

``flip_scan_bit`` on thor-rd-sim and thor-sm is a read-modify-write of one
scan element.  The generic default, and the paper's SCIFI algorithm,
shifts the whole chain out, inverts one bit and shifts it back in.
These tests hold the two to the same observable result: twin targets
flipped each way must agree on their full saved state right after the
flip, and on the termination and logged state once they run to the
end.  Campaign rows must be identical whichever path a campaign uses.
"""

from __future__ import annotations

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from tests.conftest import make_campaign
from repro import GoofiSession
from repro.core.errors import TargetError
from repro.core.framework import TargetSystemInterface, Termination
from repro.core.locations import KIND_MEMORY, KIND_SCAN, Location
from repro.targets.stack.interface import StackTargetInterface
from repro.targets.thor.interface import ThorTargetInterface

TERM = Termination(max_cycles=100_000)

#: (target class, workload) per target; short workloads keep the
#: every-element sweep cheap while still filling both Thor caches.
TARGETS = {
    "thor-rd-sim": (ThorTargetInterface, "fibonacci"),
    "thor-sm": (StackTargetInterface, "s_checksum"),
}


def three_step_flip(target: TargetSystemInterface, location: Location) -> None:
    """The paper's read_scan_chain / inject_fault / write_scan_chain."""
    TargetSystemInterface.flip_scan_bit(target, location)


def arm(target: TargetSystemInterface, workload: str, cycle: int) -> TargetSystemInterface:
    target.init_test_card()
    target.load_workload(workload)
    target.run_workload()
    assert target.wait_for_breakpoint(cycle) is None
    return target


def armed(name: str, cycle: int) -> TargetSystemInterface:
    cls, workload = TARGETS[name]
    return arm(cls(), workload, cycle)


def chains(target: TargetSystemInterface) -> dict:
    return target.card.chains if hasattr(target, "card") else target.chains


def pending_parity_lines(target: ThorTargetInterface) -> int:
    """Cache lines whose parity bit is still deferred."""
    cpu = target.card.cpu
    return sum(line._dirty for cache in (cpu.icache, cpu.dcache) for line in cache.lines)


def first_difference(a, b, path: str = "") -> str | None:
    """Path of the first entry where two saved states differ, or
    ``None`` — a short failure message instead of a diff of whole
    memory images."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            found = first_difference(a[key], b[key], f"{path}/{key}")
            if found is not None:
                return found
        return None
    return None if a == b else path or "/"


class Twins:
    """Two targets of one kind, re-armed in lockstep for every check
    (building a target costs far more than re-initialising one), and
    the workload's default observation."""

    def __init__(self, name: str) -> None:
        cls, self.workload = TARGETS[name]
        with GoofiSession(target_name=name) as session:
            self.observation = session.default_observation(self.workload)
        self.fast, self.reference = cls(), cls()
        arm(self.fast, self.workload, 0)
        end = self.fast.wait_for_termination(TERM).cycle
        #: Sampled cycles of the reference run.
        self.cycles = sorted({1, end // 3, (2 * end) // 3, end - 1})

    def flipped(self, cycle: int, location: Location):
        fast = arm(self.fast, self.workload, cycle)
        reference = arm(self.reference, self.workload, cycle)
        fast.flip_scan_bit(location)
        three_step_flip(reference, location)
        return fast, reference

    def check(self, cycle: int, location: Location) -> None:
        # State right after the flip.
        fast, reference = self.flipped(cycle, location)
        where = first_difference(fast.save_state(), reference.save_state())
        assert where is None, f"{location.label()}: {where}"

        # Outcome, re-armed: save_state settles pending cache parity,
        # and the run must start with every line the element flip left
        # pending still pending.
        fast, reference = self.flipped(cycle, location)
        assert fast.wait_for_termination(TERM) == reference.wait_for_termination(
            TERM
        ), location.label()
        assert fast.capture_state(self.observation) == reference.capture_state(
            self.observation
        ), location.label()
        where = first_difference(fast.save_state(), reference.save_state())
        assert where is None, f"{location.label()}: {where}"


@pytest.fixture(scope="module", params=sorted(TARGETS))
def twins(request) -> Twins:
    return Twins(request.param)


class TestFlipEquivalence:
    def test_sample_cycles_cover_pending_parity(self):
        twins = Twins("thor-rd-sim")
        assert any(
            pending_parity_lines(arm(twins.fast, twins.workload, cycle))
            for cycle in twins.cycles
        )

    # No shrinking: a failure already names its cycle and location, and
    # shrinking an example of a thousand draws is slow.
    @settings(max_examples=2, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(data=st.data())
    def test_every_element_matches_three_step_path(self, twins, data):
        for cycle in twins.cycles:
            for chain_name, chain in chains(twins.fast).items():
                for element in chain.elements:
                    bit = data.draw(
                        st.integers(0, element.width - 1),
                        label=f"{cycle}:{chain_name}:{element.name}",
                    )
                    twins.check(
                        cycle,
                        Location(kind=KIND_SCAN, chain=chain_name,
                                 element=element.name, bit=bit),
                    )


class TestFlipErrors:
    @pytest.mark.parametrize(
        "name,chain,element",
        [
            ("thor-rd-sim", "internal", "ctrl.CYCLE"),
            ("thor-rd-sim", "boundary", "pins.ABUS"),
            ("thor-sm", "internal", "ctrl.CYCLE"),
        ],
    )
    def test_read_only_element_is_a_no_op(self, name, chain, element):
        location = Location(kind=KIND_SCAN, chain=chain, element=element, bit=3)
        untouched = armed(name, 20).save_state()
        for flip in (lambda t, loc: t.flip_scan_bit(loc), three_step_flip):
            target = armed(name, 20)
            flip(target, location)
            assert target.save_state() == untouched

    @pytest.mark.parametrize("name", sorted(TARGETS))
    @pytest.mark.parametrize(
        "location",
        [
            Location(kind=KIND_SCAN, chain="internal", element="ctrl.PC", bit=16),
            Location(kind=KIND_SCAN, chain="nosuch", element="ctrl.PC", bit=0),
            Location(kind=KIND_SCAN, chain="internal", element="nosuch", bit=0),
            Location(kind=KIND_MEMORY, address=0x400, bit=0),
        ],
        ids=["bit-out-of-range", "unknown-chain", "unknown-element", "memory"],
    )
    def test_bad_location_raises_target_error(self, name, location):
        for flip in (lambda t, loc: t.flip_scan_bit(loc), three_step_flip):
            with pytest.raises(TargetError):
                flip(armed(name, 20), location)


def rows_by_name(db, campaign: str) -> dict:
    return {
        record.experiment_name.split("/", 1)[1]: (record.experiment_data, record.state_vector)
        for record in db.iter_experiments(campaign)
    }


class TestCampaignRowsIndependentOfFlipPath:
    """Campaign rows from the element flip equal rows from the paper's
    three-step path, checked outside any benchmark's own digests."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "technique,locations,experiments",
        [
            ("scifi", ("internal:*",), 60),
            ("swifi_runtime", ("internal:regs.*",), 40),
        ],
        ids=["scifi", "swifi_runtime"],
    )
    def test_rows_identical(self, session, monkeypatch, workers, technique,
                            locations, experiments):
        def run(name: str) -> dict:
            make_campaign(session, name, workload="bubble_sort", technique=technique,
                          locations=locations, num_experiments=experiments, seed=41)
            result = session.run_campaign(name, workers=workers, checkpoints=True)
            assert result.experiments_run == experiments and not result.aborted
            return rows_by_name(session.db, name)

        element_rows = run("element")
        monkeypatch.setattr(
            ThorTargetInterface, "flip_scan_bit", TargetSystemInterface.flip_scan_bit
        )
        three_step_rows = run("three-step")
        assert element_rows == three_step_rows
