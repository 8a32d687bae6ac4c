"""Shared GOOFI target-system interface for scan-chain targets.

Porting GOOFI to a new target means writing the target-specific part of
:class:`repro.core.framework.TargetSystemInterface` (paper §2.2,
Figure 3).  When the target's state is reached through
:class:`repro.targets.scan.ScanChain` objects, scan access, the
stuck-at/intermittent overlays, state capture, the execution-engine
hooks and the run-control skeleton do not depend on the processor:
:class:`ScanTargetInterface` implements them once over the *processor*
and *chains* a subclass hands its constructor.  The processor is any
object with ``cycle``, ``iteration``, ``pc``, ``halted``,
``detection``, ``output_log``, ``post_step_hooks``, ``fast``,
``fast_segments`` and ``ref_segments`` (``ThorCPU`` and
``StackMachine`` both qualify).  The subclass writes the abstract
primitives below plus the remaining target-specific blocks (workloads,
tracing, single-stepping, environment wiring, checkpoints, describe).

:mod:`repro.targets.scan`, which the simulators import, stays free of
the framework; this module is its GOOFI-side counterpart.
"""

from __future__ import annotations

import abc

import numpy as np

from ..core.errors import TargetError
from ..core.faultmodels import (
    FaultModel,
    IntermittentBitFlip,
    StuckAt,
    TransientBitFlip,
)
from ..core.framework import (
    OUTCOME_DETECTED,
    OUTCOME_TIMEOUT,
    OUTCOME_WORKLOAD_END,
    ObservationSpec,
    TargetSystemInterface,
    Termination,
    TerminationInfo,
)
from ..core.locations import (
    KIND_MEMORY,
    KIND_SCAN,
    Location,
    LocationSpace,
    MemoryRegionInfo,
    ScanElementInfo,
)
from .scan import ScanChain

#: Stop reasons :meth:`ScanTargetInterface._run` returns.
STOP_CYCLE_BREAK = "cycle_break"  # the requested stop cycle was reached
STOP_HALTED = "halted"  # workload end, or the iteration limit
STOP_DETECTED = "detected"  # an error-detection mechanism fired
STOP_CYCLE_LIMIT = "cycle_limit"  # the watchdog time-out


class ScanTargetInterface(TargetSystemInterface):
    """A target whose state is reached through scan chains."""

    supports_checkpoints = True
    supports_probes = True

    def __init__(self, processor, chains: dict[str, ScanChain]) -> None:
        super().__init__()
        self.processor = processor
        self.chains = chains
        self._environment = None
        self._running = False

    # ------------------------------------------------------------------
    # Target-specific primitives
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _run(self, max_cycles: int, max_iterations: int | None,
             stop_at_cycle: int | None = None) -> str:
        """Run (or resume) until ``stop_at_cycle``, the cycle budget, an
        ITER boundary at ``max_iterations``, HALT or a detection, with
        the environment exchange at every ITER boundary; return one of
        the ``STOP_*`` reasons."""

    @abc.abstractmethod
    def _read_words(self, address: int, count: int) -> list[int]:
        """``count`` memory words from ``address``: the host read behind
        :meth:`read_memory`, which :meth:`capture_state` calls directly."""

    @abc.abstractmethod
    def _memory_accessors(self, address: int):
        """``(get, set)`` closures over one memory word, for overlays."""

    @abc.abstractmethod
    def _detection_payload(self) -> dict | None:
        """The processor's detection, serialised for ``TerminationInfo``."""

    @abc.abstractmethod
    def _memory_regions(self) -> list[MemoryRegionInfo]:
        """The memory half of :meth:`location_space`."""

    # ------------------------------------------------------------------
    # Figure 2 building blocks
    # ------------------------------------------------------------------
    def read_memory(self, address: int, count: int) -> list[int]:
        return self._read_words(address, count)

    def wait_for_breakpoint(self, cycle: int) -> TerminationInfo | None:
        self._require_running()
        if self.processor.halted:
            return self._halted_info()
        self._check_not_past(cycle, "time breakpoint")
        return self._stop_info(self._run(cycle + 1, None, stop_at_cycle=cycle))

    def wait_for_termination(self, termination: Termination) -> TerminationInfo:
        self._require_running()
        if self.processor.halted:
            return self._halted_info()
        return self._stop_info(
            self._run(termination.max_cycles, termination.max_iterations)
        )

    def run_until_cycle(
        self, cycle: int, termination: Termination
    ) -> TerminationInfo | None:
        self._require_running()
        if self.processor.halted:
            return self._halted_info()
        self._check_not_past(cycle, "probe stop")
        # The stop cycle folds into the fused run loop exactly like a
        # time breakpoint, but the *full* termination conditions stay
        # armed: max_iterations keeps counting across probe stops, so a
        # sliced run ends exactly where an unsliced one would.
        return self._stop_info(
            self._run(
                termination.max_cycles,
                termination.max_iterations,
                stop_at_cycle=cycle,
            )
        )

    def _scan_read_raw(self, chain: str) -> int:
        return self._chain(chain).read()

    def _scan_write_raw(self, chain: str, value: int) -> None:
        self._chain(chain).write(value)

    def probe_scan_chain(self, chain: str) -> tuple[int, ...]:
        return self._chain(chain).snapshot()

    def probe_scan_chain_packed(self, chain: str):
        return self._chain(chain).snapshot_packed()

    def probe_element_names(self, chain: str) -> list[str]:
        return self._chain(chain).element_names()

    def flip_scan_bit(self, location: Location) -> None:
        # Every chain setter leaves state unchanged when written its own
        # value, so flipping the one element is the full read/inject/
        # write as observed.
        chain = self._chain(location.chain)
        try:
            chain.flip_bit(location.element, location.bit)
        except (KeyError, ValueError) as exc:
            raise TargetError(str(exc)) from exc

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def scan_bit_position(self, chain: str, element: str, bit: int) -> int:
        scan_chain = self._chain(chain)
        try:
            return scan_chain.bit_position(element, bit)
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
            for chain_name, chain in self.chains.items()
            for element in chain.elements
        ]
        return LocationSpace(scan_elements=elements, memory_regions=self._memory_regions())

    # ------------------------------------------------------------------
    # Extension building blocks
    # ------------------------------------------------------------------
    def current_cycle(self) -> int:
        return self.processor.cycle

    def capture_state(self, observation: ObservationSpec) -> dict:
        processor = self.processor
        scan: dict[str, int] = {}
        for key in observation.scan_elements:
            chain_name, _, element_name = key.partition(":")
            scan[key] = self.chains[chain_name].read_element(element_name)
        memory: dict[str, int] = {}
        for base, count in observation.memory_ranges:
            # Through the host read, not the public read_memory: a
            # readout is not a workload memory exchange.
            for offset, word in enumerate(self._read_words(base, count)):
                memory[str(base + offset)] = word
        state: dict = {
            "scan": scan,
            "memory": memory,
            "cycle": processor.cycle,
            "iteration": processor.iteration,
            "pc": processor.pc,
        }
        if observation.include_outputs:
            state["outputs"] = [list(entry) for entry in processor.output_log]
        return state

    def install_fault_overlay(self, location: Location, model: FaultModel, seed: int) -> None:
        if isinstance(model, TransientBitFlip):
            raise TargetError("transient faults go through the scan chains, not overlays")
        processor = self.processor
        get_value, set_value = self._overlay_accessors(location)
        mask = 1 << location.bit
        if isinstance(model, StuckAt):

            def stuck_hook(_processor) -> None:
                value = get_value()
                forced = value | mask if model.value else value & ~mask
                if forced != value:
                    set_value(forced)

            stuck_hook(processor)  # the fault is present from the moment of injection
            processor.post_step_hooks.append(stuck_hook)
        elif isinstance(model, IntermittentBitFlip):
            rng = np.random.default_rng(seed)
            start_cycle = processor.cycle

            def intermittent_hook(inner) -> None:
                if inner.cycle - start_cycle >= model.duration:
                    return
                if rng.random() < model.activity:
                    set_value(get_value() ^ mask)

            processor.post_step_hooks.append(intermittent_hook)
        else:  # pragma: no cover - exhaustive over FaultModel
            raise TargetError(f"unsupported fault model {model!r}")

    # ------------------------------------------------------------------
    # Execution engine
    # ------------------------------------------------------------------
    def set_fast_path(self, enabled: bool) -> None:
        self.processor.fast = bool(enabled)

    def execution_stats(self) -> dict:
        processor = self.processor
        return {
            "fast_segments": processor.fast_segments,
            "ref_segments": processor.ref_segments,
            "cycles": processor.cycle,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _chain(self, name: str) -> ScanChain:
        try:
            return self.chains[name]
        except KeyError:
            raise TargetError(f"{self.target_name} has no scan chain {name!r}") from None

    def _overlay_accessors(self, location: Location):
        if location.kind == KIND_SCAN:
            try:
                element = self._chain(location.chain).element(location.element)
            except KeyError as exc:
                raise TargetError(str(exc)) from exc
            if not element.writable:
                raise TargetError(f"cannot overlay read-only element {location.label()}")
            return element.getter, element.setter
        if location.kind == KIND_MEMORY:
            return self._memory_accessors(location.address)
        raise TargetError(f"cannot overlay location {location.label()}")

    def _require_running(self) -> None:
        if not self._running:
            raise TargetError("workload not started; call run_workload first")

    def _check_not_past(self, cycle: int, what: str) -> None:
        if cycle < self.processor.cycle:
            raise TargetError(
                f"{what} at cycle {cycle} is in the past "
                f"(target is at cycle {self.processor.cycle})"
            )

    def _stop_info(self, reason: str) -> TerminationInfo | None:
        """The ``TerminationInfo`` of a :meth:`_run` stop, or ``None``
        when it stopped at the requested cycle."""
        if reason == STOP_CYCLE_BREAK:
            return None
        processor = self.processor
        if reason == STOP_HALTED:
            return TerminationInfo(OUTCOME_WORKLOAD_END, processor.cycle, processor.iteration)
        if reason == STOP_DETECTED:
            return TerminationInfo(
                OUTCOME_DETECTED, processor.cycle, processor.iteration,
                self._detection_payload(),
            )
        if reason == STOP_CYCLE_LIMIT:
            return TerminationInfo(OUTCOME_TIMEOUT, processor.cycle, processor.iteration)
        raise TargetError(f"unexpected stop reason {reason!r}")

    def _halted_info(self) -> TerminationInfo:
        """How the run ended, asked again after the processor halted."""
        if self.processor.detection is not None:
            return self._stop_info(STOP_DETECTED)
        return self._stop_info(STOP_HALTED)
