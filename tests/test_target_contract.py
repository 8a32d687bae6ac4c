"""The shared scan-chain target contract, held on both built-in targets.

THOR-RD-sim and THOR-SM get their scan access, overlays, run control
and error mapping from :class:`repro.targets.common.ScanTargetInterface`.
Each check here runs against both, so behaviour one target's own tests
cover cannot drift on the other.
"""

from __future__ import annotations

import pytest

from repro.core.errors import TargetError
from repro.core.faultmodels import IntermittentBitFlip, StuckAt
from repro.core.framework import Termination
from repro.core.locations import KIND_MEMORY, KIND_SCAN, Location

TERM = Termination(max_cycles=100_000)

#: Per target: a halting workload, and an internal-chain element that
#: workload never touches (an overlay on it is all that changes it).
WORKLOADS = {"thor-rd-sim": "fibonacci", "thor-sm": "s_checksum"}
IDLE_ELEMENTS = {"thor-rd-sim": "regs.R12", "thor-sm": "rstack.C7"}


def armed(target, cycle: int = 20):
    target.init_test_card()
    target.load_workload(WORKLOADS[target.target_name])
    target.run_workload()
    assert target.wait_for_breakpoint(cycle) is None
    return target


def unknown(method: str):
    location = Location(kind=KIND_SCAN, chain="mystery", element="x", bit=0)
    calls = {
        "read_scan_chain": lambda t: t.read_scan_chain("mystery"),
        "_scan_write_raw": lambda t: t._scan_write_raw("mystery", 0),
        "probe_scan_chain": lambda t: t.probe_scan_chain("mystery"),
        "probe_scan_chain_packed": lambda t: t.probe_scan_chain_packed("mystery"),
        "probe_element_names": lambda t: t.probe_element_names("mystery"),
        "flip_scan_bit": lambda t: t.flip_scan_bit(location),
        "scan_bit_position": lambda t: t.scan_bit_position("mystery", "x", 0),
        "install_fault_overlay": lambda t: t.install_fault_overlay(
            location, StuckAt(1), seed=1
        ),
    }
    return calls[method]


class Recorder:
    """A minimal environment simulator: it logs every exchange."""

    def __init__(self) -> None:
        self.log: list[tuple[int, int]] = []

    def exchange(self, target, iteration: int) -> None:
        self.log.append((iteration, target.current_cycle()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Recorder) and other.log == self.log


class TestScanTargetContract:
    @pytest.mark.parametrize(
        "method",
        [
            "read_scan_chain",
            "_scan_write_raw",
            "probe_scan_chain",
            "probe_scan_chain_packed",
            "probe_element_names",
            "flip_scan_bit",
            "scan_bit_position",
            "install_fault_overlay",
        ],
    )
    def test_unknown_chain_raises_target_error(self, scan_target, method):
        armed(scan_target)
        with pytest.raises(TargetError, match="no scan chain 'mystery'"):
            unknown(method)(scan_target)

    def test_read_only_overlay_refused(self, scan_target):
        armed(scan_target)
        location = Location(kind=KIND_SCAN, chain="internal", element="ctrl.CYCLE", bit=0)
        with pytest.raises(TargetError, match="read-only"):
            scan_target.install_fault_overlay(location, StuckAt(1), seed=1)

    @pytest.mark.parametrize("kind", [KIND_SCAN, KIND_MEMORY])
    @pytest.mark.parametrize(
        "model",
        [StuckAt(1), IntermittentBitFlip(duration=1000, activity=1.0)],
        ids=["stuck_at", "intermittent"],
    )
    def test_overlay_applies_every_step(self, scan_target, kind, model):
        target = armed(scan_target)
        if kind == KIND_SCAN:
            element = IDLE_ELEMENTS[target.target_name]
            location = Location(kind=KIND_SCAN, chain="internal", element=element, bit=3)

            def read() -> int:
                return target.chains["internal"].read_element(element)
        else:
            address = target.location_space().region("data").limit - 1
            location = Location(kind=KIND_MEMORY, address=address, bit=3)

            def read() -> int:
                return target.read_memory(address, 1)[0]

        before = read()
        target.install_fault_overlay(location, model, seed=1)
        for step in range(1, 4):
            assert target.single_step(TERM) is None
            if isinstance(model, StuckAt):
                # Forced from the moment of injection, after every step.
                assert read() == before | 8
            else:
                # Activity 1.0 flips the bit once per step.
                assert read() == before ^ (8 * (step % 2))

    @pytest.mark.parametrize("stop", ["breakpoint", "probe"])
    def test_stop_in_the_past_rejected(self, scan_target, stop):
        target = armed(scan_target, cycle=30)
        with pytest.raises(TargetError, match="is in the past"):
            if stop == "breakpoint":
                target.wait_for_breakpoint(10)
            else:
                target.run_until_cycle(10, TERM)
        assert target.current_cycle() == 30

    def test_save_restore_round_trips_environment(self, scan_target):
        target = scan_target
        target.init_test_card()
        if target.target_name == "thor-rd-sim":
            # A loop workload, so the environment really exchanges.
            target.load_workload("control_unprotected")
            termination = Termination(max_cycles=200_000, max_iterations=4)
        else:
            target.load_workload(WORKLOADS[target.target_name])
            termination = TERM
        target.run_workload()
        environment = Recorder()
        target.set_environment(environment)
        assert target.wait_for_breakpoint(50) is None
        snapshot = target.save_state()
        target.wait_for_termination(termination)
        reference = target.save_state()
        assert snapshot["environment"] is not environment
        if target.target_name == "thor-rd-sim":
            assert len(snapshot["environment"].log) < len(environment.log) == 4

        for _ in range(2):  # the snapshot stays reusable
            target.restore_state(snapshot)
            assert target.save_state() == snapshot
            target.wait_for_termination(termination)
            assert target.save_state() == reference
        # Restores attach copies: the live object the run started with
        # saw only the first run's exchanges.
        assert environment == reference["environment"]
