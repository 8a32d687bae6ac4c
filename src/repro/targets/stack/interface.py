"""GOOFI target-system interface for the THOR-SM stack machine.

The second concrete ``TargetSystemInterface`` in the repository — the
proof of the paper's porting claim on a processor with a *different
architecture class* (stack machine vs register machine): the generic
algorithms, campaign management, database, and analysis phases run
unchanged against it.
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
from ..scan import ScanChain, ScanElement
from .isa import DATA_STACK_CELLS, RETURN_STACK_CELLS
from .machine import DATA_BASE, MEMORY_WORDS, StackMachine
from .workloads import STACK_SOURCES, s_load

TARGET_NAME = "thor-sm"


def _list_element(name: str, store: list, index: int, width: int) -> ScanElement:
    return ScanElement(
        name,
        width,
        getter=lambda: store[index],
        setter=lambda value: store.__setitem__(index, value),
    )


def _attr_element(machine: StackMachine, name: str, attr: str, width: int,
                  writable: bool = True) -> ScanElement:
    setter = (lambda value: setattr(machine, attr, value)) if writable else None
    return ScanElement(name, width, getter=lambda: getattr(machine, attr), setter=setter)


def _set_port(ports: dict[int, int], port: int, value: int) -> None:
    # An unset latch reads 0; writing it 0 must not create the entry, or
    # a chain shift-in would change state it only rewrote.
    if value != ports.get(port, 0):
        ports[port] = value


def build_stack_chains(machine: StackMachine) -> dict[str, ScanChain]:
    """Scan chains of THOR-SM: every stack cell and its parity bit, the
    stack pointers, PC, cycle counter (read-only), and the port pins."""
    internal: list[ScanElement] = []
    for i in range(DATA_STACK_CELLS):
        internal.append(_list_element(f"dstack.C{i}", machine.dstack, i, 32))
        internal.append(_list_element(f"dstack.P{i}", machine.dparity, i, 1))
    for i in range(RETURN_STACK_CELLS):
        internal.append(_list_element(f"rstack.C{i}", machine.rstack, i, 32))
        internal.append(_list_element(f"rstack.P{i}", machine.rparity, i, 1))
    internal.append(_attr_element(machine, "ctrl.DSP", "dsp", 5))
    internal.append(_attr_element(machine, "ctrl.RSP", "rsp", 4))
    internal.append(_attr_element(machine, "ctrl.PC", "pc", 16))
    internal.append(_attr_element(machine, "ctrl.CYCLE", "cycle", 32, writable=False))

    boundary: list[ScanElement] = []
    for port in (0, 1):
        boundary.append(
            ScanElement(
                f"pins.IN{port}",
                32,
                getter=lambda p=port: machine.input_ports.get(p, 0),
                setter=lambda value, p=port: _set_port(machine.input_ports, p, value),
            )
        )
        boundary.append(
            ScanElement(
                f"pins.OUT{port}",
                32,
                getter=lambda p=port: machine.output_ports.get(p, 0),
                setter=lambda value, p=port: _set_port(machine.output_ports, p, value),
            )
        )
    return {
        "internal": ScanChain("internal", internal),
        "boundary": ScanChain("boundary", boundary),
    }


class StackTargetInterface(TargetSystemInterface):
    """The THOR-SM implementation of the GOOFI framework template."""

    target_name = TARGET_NAME
    test_card_name = "sim-stack-debug-port"
    supports_checkpoints = True
    supports_probes = True

    def __init__(self) -> None:
        super().__init__()
        self.machine = StackMachine()
        self.chains = build_stack_chains(self.machine)
        self._environment = None
        self._loaded = None
        self._running = False

    # ------------------------------------------------------------------
    # Figure 2 building blocks
    # ------------------------------------------------------------------
    def init_test_card(self) -> None:
        self.machine.clear_memory()
        self.machine.reset()
        self._scan_buffers.clear()
        self._loaded = None
        self._running = False

    def load_workload(self, workload_id: str) -> None:
        try:
            program = s_load(workload_id)
        except KeyError as exc:
            raise TargetError(str(exc)) from exc
        machine = self.machine
        machine.load_image(0, program.program)
        machine.load_image(program.data_base, program.data)
        machine.reset(entry_point=program.entry_point)
        self._loaded = program

    def write_memory(self, address: int, words: list[int]) -> None:
        for offset, word in enumerate(words):
            target_address = address + offset
            if not 0 <= target_address < MEMORY_WORDS:
                raise TargetError(f"host write outside memory: 0x{target_address:04X}")
            self.machine.memory[target_address] = word & 0xFFFFFFFF

    def read_memory(self, address: int, count: int) -> list[int]:
        if not 0 <= address <= MEMORY_WORDS - count:
            raise TargetError(f"host read outside memory: 0x{address:04X}")
        return self.machine.memory[address : address + count].tolist()

    def run_workload(self) -> None:
        if self._loaded is None:
            raise TargetError("no workload loaded; call load_workload first")
        self._running = True

    def _run(self, max_cycles: int, max_iterations: int | None,
             stop_at_cycle: int | None = None) -> str:
        """machine.run plus ITER handling (environment exchange and the
        iteration limit)."""
        machine = self.machine
        while True:
            reason = machine.run(max_cycles, stop_at_cycle=stop_at_cycle)
            if reason != "iteration":
                return reason
            if self._environment is not None:
                self._environment.exchange(self, machine.iteration)
            if max_iterations is not None and machine.iteration >= max_iterations:
                return "halted"

    def wait_for_breakpoint(self, cycle: int) -> TerminationInfo | None:
        self._require_running()
        machine = self.machine
        if machine.halted:
            return self._info_from_machine()
        if cycle < machine.cycle:
            raise TargetError(f"time breakpoint at cycle {cycle} is in the past")
        reason = self._run(cycle + 1, None, stop_at_cycle=cycle)
        if reason == "cycle_break":
            return None
        return self._map_reason(reason)

    def wait_for_termination(self, termination: Termination) -> TerminationInfo:
        self._require_running()
        if self.machine.halted:
            return self._info_from_machine()
        reason = self._run(termination.max_cycles, termination.max_iterations)
        return self._map_reason(reason)

    def run_until_cycle(
        self, cycle: int, termination: Termination
    ) -> TerminationInfo | None:
        self._require_running()
        machine = self.machine
        if machine.halted:
            return self._info_from_machine()
        if cycle < machine.cycle:
            raise TargetError(f"probe stop at cycle {cycle} is in the past")
        # Like wait_for_breakpoint the stop cycle folds into the fused
        # run loop, but the iteration limit stays armed across stops.
        reason = self._run(
            termination.max_cycles, termination.max_iterations,
            stop_at_cycle=cycle,
        )
        if reason == "cycle_break":
            return None
        return self._map_reason(reason)

    def _scan_read_raw(self, chain: str) -> int:
        try:
            return self.chains[chain].read()
        except KeyError:
            raise TargetError(f"thor-sm has no scan chain {chain!r}") from None

    def probe_scan_chain(self, chain: str) -> tuple[int, ...]:
        try:
            return self.chains[chain].snapshot()
        except KeyError:
            raise TargetError(f"thor-sm has no scan chain {chain!r}") from None

    def probe_scan_chain_packed(self, chain: str):
        try:
            return self.chains[chain].snapshot_packed()
        except KeyError:
            raise TargetError(f"thor-sm has no scan chain {chain!r}") from None

    def probe_element_names(self, chain: str) -> list[str]:
        try:
            return self.chains[chain].element_names()
        except KeyError:
            raise TargetError(f"thor-sm has no scan chain {chain!r}") from None

    def _scan_write_raw(self, chain: str, value: int) -> None:
        try:
            self.chains[chain].write(value)
        except KeyError:
            raise TargetError(f"thor-sm has no scan chain {chain!r}") from None

    def flip_scan_bit(self, location: Location) -> None:
        # Every chain setter leaves state unchanged when written its own
        # value, so flipping the one element is the full read/inject/
        # write as observed.
        try:
            chain = self.chains[location.chain]
        except KeyError:
            raise TargetError(
                f"thor-sm has no scan chain {location.chain!r}"
            ) from None
        try:
            chain.flip_bit(location.element, location.bit)
        except (KeyError, ValueError) as exc:
            raise TargetError(str(exc)) from exc

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def scan_bit_position(self, chain: str, element: str, bit: int) -> int:
        try:
            return self.chains[chain].bit_position(element, bit)
        except (KeyError, ValueError) as exc:
            raise TargetError(str(exc)) from exc

    def location_space(self) -> LocationSpace:
        elements = [
            ScanElementInfo(chain=name, name=e.name, width=e.width, writable=e.writable)
            for name, chain in self.chains.items()
            for e in chain.elements
        ]
        if self._loaded is not None:
            program_limit = max(1, len(self._loaded.program))
            data_limit = DATA_BASE + max(1, len(self._loaded.data))
        else:
            program_limit = DATA_BASE
            data_limit = MEMORY_WORDS
        regions = [
            MemoryRegionInfo(name="program", base=0, limit=program_limit),
            MemoryRegionInfo(name="data", base=DATA_BASE, limit=data_limit),
        ]
        return LocationSpace(scan_elements=elements, memory_regions=regions)

    def available_workloads(self) -> list[str]:
        return sorted(STACK_SOURCES)

    def describe(self) -> dict:
        return {
            "location_space": self.location_space().to_config(),
            "scan_chains": {n: c.describe() for n, c in self.chains.items()},
            "memory_map": {"program_base": 0, "data_base": DATA_BASE,
                           "words": MEMORY_WORDS},
            "workloads": self.available_workloads(),
            "fault_models": ["transient_bitflip", "stuck_at", "intermittent_bitflip"],
            "techniques": ["scifi", "swifi_preruntime", "swifi_runtime", "pinlevel"],
            "architecture": "stack machine (parity-protected stacks)",
        }

    # ------------------------------------------------------------------
    # Extension building blocks
    # ------------------------------------------------------------------
    def single_step(self, termination: Termination) -> TerminationInfo | None:
        self._require_running()
        machine = self.machine
        if machine.halted:
            return self._info_from_machine()
        outcome = machine.step()
        if outcome == "iteration":
            if self._environment is not None:
                self._environment.exchange(self, machine.iteration)
            limit = termination.max_iterations
            if limit is not None and machine.iteration >= limit:
                return TerminationInfo(OUTCOME_WORKLOAD_END, machine.cycle,
                                       machine.iteration)
            outcome = None
        if outcome == "halted":
            return TerminationInfo(OUTCOME_WORKLOAD_END, machine.cycle, machine.iteration)
        if outcome == "detected":
            return TerminationInfo(OUTCOME_DETECTED, machine.cycle, machine.iteration,
                                   machine.detection)
        if machine.cycle >= termination.max_cycles:
            return TerminationInfo(OUTCOME_TIMEOUT, machine.cycle, machine.iteration)
        return None

    def current_cycle(self) -> int:
        return self.machine.cycle

    def capture_state(self, observation: ObservationSpec) -> dict:
        machine = self.machine
        scan: dict[str, int] = {}
        for key in observation.scan_elements:
            chain_name, _, element = key.partition(":")
            scan[key] = self.chains[chain_name].read_element(element)
        memory: dict[str, int] = {}
        for base, count in observation.memory_ranges:
            for offset, word in enumerate(self.read_memory(base, count)):
                memory[str(base + offset)] = word
        state: dict = {
            "scan": scan,
            "memory": memory,
            "cycle": machine.cycle,
            "iteration": machine.iteration,
            "pc": machine.pc,
        }
        if observation.include_outputs:
            state["outputs"] = [list(entry) for entry in machine.output_log]
        return state

    def record_trace(self, termination: Termination) -> tuple[TerminationInfo, ReferenceTrace]:
        if self._loaded is None:
            raise TargetError("no workload loaded")
        self._running = True
        machine = self.machine
        instructions: list[tuple[int, int, str]] = []
        mem_accesses: list[tuple[int, str, int]] = []
        machine.trace_hook = lambda cycle, pc, opname: instructions.append(
            (cycle, pc, opname)
        )
        machine.mem_hook = lambda cycle, kind, addr: mem_accesses.append(
            (cycle, kind, addr)
        )
        try:
            reason = self._run(termination.max_cycles, termination.max_iterations)
        finally:
            machine.trace_hook = None
            machine.mem_hook = None
        trace = ReferenceTrace(
            instructions=instructions,
            mem_accesses=mem_accesses,
            reg_accesses=[],  # stack cells have no static access model
            duration=machine.cycle,
        )
        return self._map_reason(reason), trace

    def install_fault_overlay(self, location: Location, model: FaultModel, seed: int) -> None:
        if isinstance(model, TransientBitFlip):
            raise TargetError("transient faults go through the scan chains, not overlays")
        get_value, set_value = self._overlay_accessors(location)
        mask = 1 << location.bit
        machine = self.machine
        if isinstance(model, StuckAt):

            def stuck_hook(_machine: StackMachine) -> None:
                value = get_value()
                forced = value | mask if model.value else value & ~mask
                if forced != value:
                    set_value(forced)

            stuck_hook(machine)
            machine.post_step_hooks.append(stuck_hook)
        elif isinstance(model, IntermittentBitFlip):
            rng = np.random.default_rng(seed)
            start = machine.cycle

            def intermittent_hook(inner: StackMachine) -> None:
                if inner.cycle - start >= model.duration:
                    return
                if rng.random() < model.activity:
                    set_value(get_value() ^ mask)

            machine.post_step_hooks.append(intermittent_hook)
        else:  # pragma: no cover
            raise TargetError(f"unsupported fault model {model!r}")

    def set_environment(self, env) -> None:
        self._environment = env

    # ------------------------------------------------------------------
    # Execution engine
    # ------------------------------------------------------------------
    def set_fast_path(self, enabled: bool) -> None:
        self.machine.fast = bool(enabled)

    def execution_stats(self) -> dict:
        machine = self.machine
        return {
            "fast_segments": machine.fast_segments,
            "ref_segments": machine.ref_segments,
            "cycles": machine.cycle,
        }

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def save_state(self) -> dict:
        return {
            "machine": self.machine.save_state(),
            "loaded": self._loaded,
            "running": self._running,
            "environment": copy.deepcopy(self._environment),
        }

    def restore_state(self, state: dict) -> None:
        self.machine.restore_state(state["machine"])
        self._loaded = state["loaded"]
        self._running = state["running"]
        self._scan_buffers.clear()
        # A copy, so the cached snapshot stays pristine for reuse.
        self.set_environment(copy.deepcopy(state["environment"]))

    # ------------------------------------------------------------------
    def _overlay_accessors(self, location: Location):
        if location.kind == KIND_SCAN:
            element = self.chains[location.chain].element(location.element)
            if not element.writable:
                raise TargetError(f"cannot overlay read-only element {location.label()}")
            return element.getter, element.setter
        if location.kind == KIND_MEMORY:
            address = location.address

            def get_word() -> int:
                return self.machine.memory[address]

            def set_word(value: int) -> None:
                self.machine.memory[address] = value & 0xFFFFFFFF

            return get_word, set_word
        raise TargetError(f"cannot overlay location {location.label()}")

    def _require_running(self) -> None:
        if not self._running:
            raise TargetError("workload not started; call run_workload first")

    def _map_reason(self, reason: str) -> TerminationInfo:
        machine = self.machine
        if reason == "halted":
            return TerminationInfo(OUTCOME_WORKLOAD_END, machine.cycle, machine.iteration)
        if reason == "detected":
            return TerminationInfo(
                OUTCOME_DETECTED, machine.cycle, machine.iteration, machine.detection
            )
        if reason == "cycle_limit":
            return TerminationInfo(OUTCOME_TIMEOUT, machine.cycle, machine.iteration)
        raise TargetError(f"unexpected stop reason {reason!r}")

    def _info_from_machine(self) -> TerminationInfo:
        machine = self.machine
        if machine.detection is not None:
            return TerminationInfo(
                OUTCOME_DETECTED, machine.cycle, machine.iteration, machine.detection
            )
        return TerminationInfo(OUTCOME_WORKLOAD_END, machine.cycle, machine.iteration)


def create_stack_target() -> StackTargetInterface:
    """Factory registered with :mod:`repro.core.plugins`."""
    return StackTargetInterface()
