"""GOOFI target-system interface for the THOR-RD-sim target.

This is the class a GOOFI user writes when adapting the tool to a new
target (paper Figure 3): it fills in every abstract building block of
:class:`repro.core.framework.TargetSystemInterface` with calls to the
target's host link — here the simulated test card of
:mod:`repro.targets.thor.testcard`.

The register read/write model used for trace recording (which feeds
trigger resolution and the pre-injection liveness analysis) is derived
statically per instruction from the ISA formats, the same way the real
tool "analyses the workload code".
"""

from __future__ import annotations

import copy

import numpy as np

from ...core.errors import TargetError
from ...core.faultmodels import (
    FaultModel,
    IntermittentBitFlip,
    StuckAt,
    TransientBitFlip,
)
from ...core.framework import (
    OUTCOME_DETECTED,
    OUTCOME_TIMEOUT,
    OUTCOME_WORKLOAD_END,
    ObservationSpec,
    TargetSystemInterface,
    Termination,
    TerminationInfo,
)
from ...core.locations import (
    KIND_MEMORY,
    KIND_SCAN,
    Location,
    LocationSpace,
    MemoryRegionInfo,
    ScanElementInfo,
)
from ...core.triggers import ReferenceTrace
from ...workloads import library
from .cpu import StopReason, ThorCPU
from .isa import Instruction, cached_register_events, register_events
from .testcard import RunResult, TerminationCondition, TestCard

#: Registered name of this target (the ``TargetSystemData`` key).
TARGET_NAME = "thor-rd-sim"


# Re-exported for backwards compatibility: the static register-access
# model now lives with the ISA definition.
_register_events = register_events


class ThorTargetInterface(TargetSystemInterface):
    """The THOR-RD-sim implementation of the GOOFI framework."""

    target_name = TARGET_NAME
    test_card_name = "sim-scan-test-card"
    supports_checkpoints = True
    supports_probes = True

    def __init__(
        self,
        icache_lines: int = 32,
        dcache_lines: int = 32,
        trap_on_overflow: bool = False,
        register_parity: bool = False,
        extra_workloads: dict | None = None,
    ) -> None:
        super().__init__()
        self.card = TestCard(
            icache_lines=icache_lines,
            dcache_lines=dcache_lines,
            trap_on_overflow=trap_on_overflow,
            register_parity=register_parity,
        )
        #: Extra workload images (name -> assembled Program), on top of
        #: the shared library — tests and examples register theirs here.
        self.extra_workloads = dict(extra_workloads or {})
        self._environment = None
        self._running = False

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

    def read_memory(self, address: int, count: int) -> list[int]:
        return self.card.read_memory(address, count)

    def run_workload(self) -> None:
        if self.card.loaded_workload is None:
            raise TargetError("no workload loaded; call load_workload first")
        self._running = True

    def wait_for_breakpoint(self, cycle: int) -> TerminationInfo | None:
        self._require_running()
        cpu = self.card.cpu
        if cpu.halted:
            return self._map_result_from_cpu(cpu)
        if cycle < cpu.cycle:
            raise TargetError(
                f"time breakpoint at cycle {cycle} is in the past "
                f"(target is at cycle {cpu.cycle})"
            )
        result = self.card.run(
            TerminationCondition(max_cycles=cycle + 1, max_iterations=None),
            stop_at_cycle=cycle,
        )
        if result.reason is StopReason.CYCLE_BREAK:
            return None
        return self._map_result(result)

    def wait_for_termination(self, termination: Termination) -> TerminationInfo:
        self._require_running()
        cpu = self.card.cpu
        if cpu.halted:
            return self._map_result_from_cpu(cpu)
        result = self.card.run(
            TerminationCondition(
                max_cycles=termination.max_cycles,
                max_iterations=termination.max_iterations,
            )
        )
        return self._map_result(result)

    def run_until_cycle(
        self, cycle: int, termination: Termination
    ) -> TerminationInfo | None:
        self._require_running()
        cpu = self.card.cpu
        if cpu.halted:
            return self._map_result_from_cpu(cpu)
        if cycle < cpu.cycle:
            raise TargetError(
                f"probe stop at cycle {cycle} is in the past "
                f"(target is at cycle {cpu.cycle})"
            )
        # The stop cycle folds into the fused run loop exactly like a
        # time breakpoint, but the *full* termination conditions stay
        # armed: max_iterations keeps counting across probe stops, so a
        # sliced run ends exactly where an unsliced one would.
        result = self.card.run(
            TerminationCondition(
                max_cycles=termination.max_cycles,
                max_iterations=termination.max_iterations,
            ),
            stop_at_cycle=cycle,
        )
        if result.reason is StopReason.CYCLE_BREAK:
            return None
        return self._map_result(result)

    def _scan_read_raw(self, chain: str) -> int:
        try:
            return self.card.read_scan_chain(chain)
        except KeyError as exc:
            raise TargetError(str(exc)) from exc

    def probe_scan_chain(self, chain: str) -> tuple[int, ...]:
        try:
            return self.card.scan_chain(chain).snapshot()
        except KeyError as exc:
            raise TargetError(str(exc)) from exc

    def probe_scan_chain_packed(self, chain: str):
        try:
            return self.card.scan_chain(chain).snapshot_packed()
        except KeyError as exc:
            raise TargetError(str(exc)) from exc

    def probe_element_names(self, chain: str) -> list[str]:
        try:
            return self.card.scan_chain(chain).element_names()
        except KeyError as exc:
            raise TargetError(str(exc)) from exc

    def _scan_write_raw(self, chain: str, value: int) -> None:
        try:
            self.card.write_scan_chain(chain, value)
        except KeyError as exc:
            raise TargetError(str(exc)) from exc

    def flip_scan_bit(self, location: Location) -> None:
        # Every chain setter leaves state unchanged when written its own
        # value, so flipping the one element is the full read/inject/
        # write as observed.
        try:
            chain = self.card.scan_chain(location.chain)
            chain.flip_bit(location.element, location.bit)
        except (KeyError, ValueError) as exc:
            raise TargetError(str(exc)) from exc

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def scan_bit_position(self, chain: str, element: str, bit: int) -> int:
        try:
            return self.card.scan_chain(chain).bit_position(element, bit)
        except (KeyError, ValueError) as exc:
            raise TargetError(str(exc)) from exc

    def location_space(self) -> LocationSpace:
        elements = [
            ScanElementInfo(
                chain=chain_name,
                name=element.name,
                width=element.width,
                writable=element.writable,
            )
            for chain_name, chain in self.card.chains.items()
            for element in chain.elements
        ]
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
        return LocationSpace(scan_elements=elements, memory_regions=regions)

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
            return self._map_result_from_cpu(cpu)
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
            detection = cpu.detection.to_dict() if cpu.detection else None
            return TerminationInfo(OUTCOME_DETECTED, cpu.cycle, cpu.iteration, detection)
        if cpu.cycle >= termination.max_cycles:
            return TerminationInfo(OUTCOME_TIMEOUT, cpu.cycle, cpu.iteration)
        return None

    def current_cycle(self) -> int:
        return self.card.cpu.cycle

    def capture_state(self, observation: ObservationSpec) -> dict:
        cpu = self.card.cpu
        scan: dict[str, int] = {}
        for key in observation.scan_elements:
            chain_name, _, element_name = key.partition(":")
            chain = self.card.scan_chain(chain_name)
            scan[key] = chain.read_element(element_name)
        memory: dict[str, int] = {}
        for base, count in observation.memory_ranges:
            words = self.card.read_memory(base, count)
            for offset, word in enumerate(words):
                memory[str(base + offset)] = word
        state: dict = {
            "scan": scan,
            "memory": memory,
            "cycle": cpu.cycle,
            "iteration": cpu.iteration,
            "pc": cpu.pc,
        }
        if observation.include_outputs:
            state["outputs"] = [list(entry) for entry in cpu.output_log]
        return state

    def record_trace(self, termination: Termination) -> tuple[TerminationInfo, ReferenceTrace]:
        self._require_running_or_arm()
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
            result = self.card.run(
                TerminationCondition(
                    max_cycles=termination.max_cycles,
                    max_iterations=termination.max_iterations,
                )
            )
        finally:
            cpu.trace_hook = None
            cpu.mem_hook = None
        trace = ReferenceTrace(
            instructions=instructions,
            mem_accesses=mem_accesses,
            reg_accesses=reg_accesses,
            duration=cpu.cycle,
        )
        return self._map_result(result), trace

    def install_fault_overlay(self, location: Location, model: FaultModel, seed: int) -> None:
        if isinstance(model, TransientBitFlip):
            raise TargetError("transient faults go through the scan chains, not overlays")
        cpu = self.card.cpu
        get_value, set_value = self._overlay_accessors(location)
        mask = 1 << location.bit
        if isinstance(model, StuckAt):

            def stuck_hook(_cpu: ThorCPU) -> None:
                value = get_value()
                forced = value | mask if model.value else value & ~mask
                if forced != value:
                    set_value(forced)

            stuck_hook(cpu)  # the fault is present from the moment of injection
            cpu.post_step_hooks.append(stuck_hook)
        elif isinstance(model, IntermittentBitFlip):
            rng = np.random.default_rng(seed)
            start_cycle = cpu.cycle

            def intermittent_hook(inner_cpu: ThorCPU) -> None:
                if inner_cpu.cycle - start_cycle >= model.duration:
                    return
                if rng.random() < model.activity:
                    set_value(get_value() ^ mask)

            cpu.post_step_hooks.append(intermittent_hook)
        else:  # pragma: no cover - exhaustive over FaultModel
            raise TargetError(f"unsupported fault model {model!r}")

    def set_environment(self, env) -> None:
        self._environment = env
        if env is None:
            self.card.env_exchange = None
        else:
            self.card.env_exchange = lambda _card, iteration: env.exchange(self, iteration)

    @property
    def environment(self):
        """The attached environment simulator, if any (analysis and
        benches read its plant history)."""
        return self._environment

    # ------------------------------------------------------------------
    # Execution engine
    # ------------------------------------------------------------------
    def set_fast_path(self, enabled: bool) -> None:
        self.card.cpu.fast = bool(enabled)

    def execution_stats(self) -> dict:
        cpu = self.card.cpu
        return {
            "fast_segments": cpu.fast_segments,
            "ref_segments": cpu.ref_segments,
            "cycles": cpu.cycle,
        }

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
    def _overlay_accessors(self, location: Location):
        if location.kind == KIND_SCAN:
            chain = self.card.scan_chain(location.chain)
            element = chain.element(location.element)
            if not element.writable:
                raise TargetError(f"cannot overlay read-only element {location.label()}")
            return element.getter, element.setter
        if location.kind == KIND_MEMORY:
            address = location.address

            def get_word() -> int:
                return self.card.cpu.memory.host_read(address)

            def set_word(value: int) -> None:
                self.card.cpu.memory.host_write(address, value)

            return get_word, set_word
        raise TargetError(f"cannot overlay location {location.label()}")

    def _require_running(self) -> None:
        if not self._running:
            raise TargetError("workload not started; call run_workload first")

    def _require_running_or_arm(self) -> None:
        """record_trace may be called directly after load_workload."""
        if self.card.loaded_workload is None:
            raise TargetError("no workload loaded")
        self._running = True

    def _map_result(self, result: RunResult) -> TerminationInfo:
        if result.reason is StopReason.HALTED:
            return TerminationInfo(OUTCOME_WORKLOAD_END, result.cycle, result.iteration)
        if result.reason is StopReason.DETECTED:
            detection = result.detection.to_dict() if result.detection else None
            return TerminationInfo(OUTCOME_DETECTED, result.cycle, result.iteration, detection)
        if result.reason is StopReason.CYCLE_LIMIT:
            return TerminationInfo(OUTCOME_TIMEOUT, result.cycle, result.iteration)
        raise TargetError(f"unexpected stop reason {result.reason!r}")

    def _map_result_from_cpu(self, cpu: ThorCPU) -> TerminationInfo:
        if cpu.detection is not None:
            return TerminationInfo(
                OUTCOME_DETECTED, cpu.cycle, cpu.iteration, cpu.detection.to_dict()
            )
        return TerminationInfo(OUTCOME_WORKLOAD_END, cpu.cycle, cpu.iteration)


def create_thor_target() -> ThorTargetInterface:
    """Factory registered with :mod:`repro.core.plugins`."""
    return ThorTargetInterface()
