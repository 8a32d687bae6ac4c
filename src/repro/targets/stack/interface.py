"""GOOFI target-system interface for the THOR-SM stack machine.

The second concrete ``TargetSystemInterface`` in the repository — the
proof of the paper's porting claim on a processor with a *different
architecture class* (stack machine vs register machine): the generic
algorithms, campaign management, database, and analysis phases run
unchanged against it.  Like THOR-RD-sim it builds on
:class:`repro.targets.common.ScanTargetInterface`, so this module holds
only the stack machine's scan chains and what differs per target: the
run primitive with its ITER handling, memory access, workloads,
tracing, single-stepping and checkpoints.
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
from ..common import ScanTargetInterface
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


class StackTargetInterface(ScanTargetInterface):
    """The THOR-SM implementation of the GOOFI framework template."""

    target_name = TARGET_NAME
    test_card_name = "sim-stack-debug-port"

    def __init__(self) -> None:
        self.machine = StackMachine()
        super().__init__(self.machine, build_stack_chains(self.machine))
        self._loaded = None

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

    def _read_words(self, address: int, count: int) -> list[int]:
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

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def _memory_regions(self) -> list[MemoryRegionInfo]:
        if self._loaded is not None:
            program_limit = max(1, len(self._loaded.program))
            data_limit = DATA_BASE + max(1, len(self._loaded.data))
        else:
            program_limit = DATA_BASE
            data_limit = MEMORY_WORDS
        return [
            MemoryRegionInfo(name="program", base=0, limit=program_limit),
            MemoryRegionInfo(name="data", base=DATA_BASE, limit=data_limit),
        ]

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
            return self._halted_info()
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
        return self._stop_info(reason), trace

    def set_environment(self, env) -> None:
        self._environment = env

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
    def _memory_accessors(self, address: int):
        def get_word() -> int:
            return self.machine.memory[address]

        def set_word(value: int) -> None:
            self.machine.memory[address] = value & 0xFFFFFFFF

        return get_word, set_word

    def _detection_payload(self) -> dict | None:
        return self.machine.detection


def create_stack_target() -> StackTargetInterface:
    """Factory registered with :mod:`repro.core.plugins`."""
    return StackTargetInterface()
