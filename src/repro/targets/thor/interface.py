"""GOOFI target-system interface for the THOR-RD-sim target.

This is the class a GOOFI user writes when adapting the tool to a new
target (paper Figure 3).  The scan access, overlays, state capture and
run-control skeleton it shares with every scan-chain target come from
:class:`repro.targets.common.ScanTargetInterface`; this module adds what
is specific to THOR-RD-sim, through the target's host link — the
simulated test card of :mod:`repro.targets.thor.testcard`.

The register read/write model used for trace recording (which feeds
trigger resolution and the pre-injection liveness analysis) is derived
statically per instruction from the ISA formats, the same way the real
tool "analyses the workload code".
"""

from __future__ import annotations

import copy

from ...core.errors import TargetError
from ...core.framework import (
    OUTCOME_DETECTED,
    OUTCOME_TIMEOUT,
    OUTCOME_WORKLOAD_END,
    Termination,
    TerminationInfo,
)
from ...core.locations import MemoryRegionInfo
from ...core.triggers import ReferenceTrace
from ...workloads import library
from ..common import ScanTargetInterface
from .cpu import StopReason
from .isa import Instruction, cached_register_events
from .testcard import TerminationCondition, TestCard

#: Registered name of this target (the ``TargetSystemData`` key).
TARGET_NAME = "thor-rd-sim"


class ThorTargetInterface(ScanTargetInterface):
    """The THOR-RD-sim implementation of the GOOFI framework."""

    target_name = TARGET_NAME
    test_card_name = "sim-scan-test-card"

    # The shared method, bound here too: campaignbench's tracer test
    # reads it from this class's own namespace.
    wait_for_breakpoint = ScanTargetInterface.wait_for_breakpoint

    def __init__(
        self,
        icache_lines: int = 32,
        dcache_lines: int = 32,
        trap_on_overflow: bool = False,
        register_parity: bool = False,
        extra_workloads: dict | None = None,
    ) -> None:
        self.card = TestCard(
            icache_lines=icache_lines,
            dcache_lines=dcache_lines,
            trap_on_overflow=trap_on_overflow,
            register_parity=register_parity,
        )
        super().__init__(self.card.cpu, self.card.chains)
        #: Extra workload images (name -> assembled Program), on top of
        #: the shared library — tests and examples register theirs here.
        self.extra_workloads = dict(extra_workloads or {})

    # ------------------------------------------------------------------
    # Figure 2 building blocks
    # ------------------------------------------------------------------
    def init_test_card(self) -> None:
        self.card.init_target()
        self._scan_buffers.clear()
        self._running = False

    def load_workload(self, workload_id: str) -> None:
        program = self.extra_workloads.get(workload_id)
        if program is None:
            try:
                program = library.load(workload_id)
            except KeyError as exc:
                raise TargetError(str(exc)) from exc
        self.card.load_workload(program)

    def write_memory(self, address: int, words: list[int]) -> None:
        self.card.write_memory(address, words)

    def _read_words(self, address: int, count: int) -> list[int]:
        return self.card.read_memory(address, count)

    def run_workload(self) -> None:
        if self.card.loaded_workload is None:
            raise TargetError("no workload loaded; call load_workload first")
        self._running = True

    def _run(self, max_cycles: int, max_iterations: int | None,
             stop_at_cycle: int | None = None) -> str:
        """The test card's run, which handles ITER boundaries."""
        result = self.card.run(
            TerminationCondition(max_cycles=max_cycles, max_iterations=max_iterations),
            stop_at_cycle=stop_at_cycle,
        )
        return result.reason.value

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def _memory_regions(self) -> list[MemoryRegionInfo]:
        regions: list[MemoryRegionInfo] = []
        program = self.card.loaded_workload
        if program is not None:
            if program.program:
                regions.append(
                    MemoryRegionInfo(
                        name="program",
                        base=program.program_base,
                        limit=program.program_base + len(program.program),
                    )
                )
            if program.data:
                regions.append(
                    MemoryRegionInfo(
                        name="data",
                        base=program.data_base,
                        limit=program.data_base + len(program.data),
                    )
                )
        else:
            memory_map = self.card.cpu.memory.map
            regions.append(
                MemoryRegionInfo(
                    name="program", base=memory_map.program_base, limit=memory_map.program_limit
                )
            )
            regions.append(
                MemoryRegionInfo(
                    name="data", base=memory_map.data_base, limit=memory_map.stack_top
                )
            )
        return regions

    def available_workloads(self) -> list[str]:
        return sorted(set(library.workload_names()) | set(self.extra_workloads))

    def describe(self) -> dict:
        memory_map = self.card.cpu.memory.map
        return {
            "location_space": self.location_space().to_config(),
            "scan_chains": self.card.describe_chains(),
            "memory_map": {
                "program_base": memory_map.program_base,
                "program_limit": memory_map.program_limit,
                "data_base": memory_map.data_base,
                "stack_top": memory_map.stack_top,
            },
            "workloads": self.available_workloads(),
            "fault_models": ["transient_bitflip", "stuck_at", "intermittent_bitflip"],
            "techniques": ["scifi", "swifi_preruntime", "swifi_runtime", "pinlevel"],
            "edm_config": {
                "register_parity": self.card.cpu.register_parity,
                "trap_on_overflow": self.card.cpu.trap_on_overflow,
            },
        }

    # ------------------------------------------------------------------
    # Extension building blocks
    # ------------------------------------------------------------------
    def single_step(self, termination: Termination) -> TerminationInfo | None:
        self._require_running()
        card = self.card
        cpu = card.cpu
        if cpu.halted:
            return self._halted_info()
        stop = cpu.step()
        if stop is StopReason.ITERATION:
            if card.env_exchange is not None:
                card.env_exchange(card, cpu.iteration)
            limit = termination.max_iterations
            if limit is not None and cpu.iteration >= limit:
                return TerminationInfo(OUTCOME_WORKLOAD_END, cpu.cycle, cpu.iteration)
            stop = None
        if stop is StopReason.HALTED:
            return TerminationInfo(OUTCOME_WORKLOAD_END, cpu.cycle, cpu.iteration)
        if stop is StopReason.DETECTED:
            return TerminationInfo(
                OUTCOME_DETECTED, cpu.cycle, cpu.iteration, self._detection_payload()
            )
        if cpu.cycle >= termination.max_cycles:
            return TerminationInfo(OUTCOME_TIMEOUT, cpu.cycle, cpu.iteration)
        return None

    def record_trace(self, termination: Termination) -> tuple[TerminationInfo, ReferenceTrace]:
        # record_trace may be called directly after load_workload.
        if self.card.loaded_workload is None:
            raise TargetError("no workload loaded")
        self._running = True
        cpu = self.card.cpu
        instructions: list[tuple[int, int, str]] = []
        mem_accesses: list[tuple[int, str, int]] = []
        reg_accesses: list[tuple[int, str, int]] = []

        def trace_hook(cycle: int, pc: int, inst: Instruction) -> None:
            instructions.append((cycle, pc, inst.op.name))
            reads, writes = cached_register_events(inst)
            for register in reads:
                reg_accesses.append((cycle, "read", register))
            for register in writes:
                reg_accesses.append((cycle, "write", register))

        def mem_hook(access) -> None:
            mem_accesses.append((access.cycle, access.kind, access.address))

        cpu.trace_hook = trace_hook
        cpu.mem_hook = mem_hook
        try:
            reason = self._run(termination.max_cycles, termination.max_iterations)
        finally:
            cpu.trace_hook = None
            cpu.mem_hook = None
        trace = ReferenceTrace(
            instructions=instructions,
            mem_accesses=mem_accesses,
            reg_accesses=reg_accesses,
            duration=cpu.cycle,
        )
        return self._stop_info(reason), trace

    def set_environment(self, env) -> None:
        self._environment = env
        if env is None:
            self.card.env_exchange = None
        else:
            self.card.env_exchange = lambda _card, iteration: env.exchange(self, iteration)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def save_state(self) -> dict:
        """Full-fidelity snapshot: the test card (CPU, memory, caches,
        loaded workload), the run flag, and a deep copy of the attached
        environment simulator — its plant state advances with the
        workload's ITER boundaries and is part of the prefix."""
        return {
            "card": self.card.save_state(),
            "running": self._running,
            "environment": copy.deepcopy(self._environment),
        }

    def restore_state(self, state: dict) -> None:
        self.card.restore_state(state["card"])
        self._running = state["running"]
        # Any scan capture from a previous experiment is stale now.
        self._scan_buffers.clear()
        # Re-attach a *copy* of the snapshotted environment so the
        # cached snapshot stays pristine for the next restore, and so
        # the card's exchange callback is rewired to the live object.
        self.set_environment(copy.deepcopy(state["environment"]))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _memory_accessors(self, address: int):
        def get_word() -> int:
            return self.card.cpu.memory.host_read(address)

        def set_word(value: int) -> None:
            self.card.cpu.memory.host_write(address, value)

        return get_word, set_word

    def _detection_payload(self) -> dict | None:
        detection = self.card.cpu.detection
        return detection.to_dict() if detection else None


def create_thor_target() -> ThorTargetInterface:
    """Factory registered with :mod:`repro.core.plugins`."""
    return ThorTargetInterface()
