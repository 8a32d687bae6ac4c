"""Execution core of THOR-SM, the stack-machine target.

Architecture: a 16-cell data stack and an 8-cell return stack — both
*parity protected per cell* (the stack-architecture analogue of the
Thor RD's parity-protected caches) — a 16-bit PC, 4 Ki words of memory
split into program and data areas, and I/O port latches.

Error-detection mechanisms:

* ``dstack_parity`` / ``rstack_parity`` — a pop or stack-top read whose
  cell parity mismatches (a scan-injected or overlay corruption);
* ``stack_bounds`` — data/return stack overflow or underflow;
* ``illegal_opcode`` — undefined opcode byte;
* ``mem_violation`` — access outside memory, or a runtime store into
  the program area;
* ``arithmetic`` — division by zero.

Detections are plain dicts (mechanism / cycle / pc / detail) — the
format :class:`repro.core.framework.TerminationInfo` carries — so this
target has no dependency on any other target's EDM types.
"""

from __future__ import annotations

from typing import Callable

from .. import statebuf
from .isa import (
    DATA_STACK_CELLS,
    RETURN_STACK_CELLS,
    S_DECODE_CACHE,
    WORD_MASK,
    SIllegalOpcode,
    SInstruction,
    SOp,
    s_decode,
)

MEMORY_WORDS = 4096
PROGRAM_BASE = 0
DATA_BASE = 1024

_SIGN = 0x80000000


def _signed(value: int) -> int:
    value &= WORD_MASK
    return value - 0x100000000 if value & _SIGN else value


def _parity(value: int) -> int:
    return value.bit_count() & 1


class _Detected(Exception):
    """Internal control flow: an EDM fired."""

    def __init__(self, mechanism: str, detail: str) -> None:
        super().__init__(detail)
        self.mechanism = mechanism
        self.detail = detail


class StackMachine:
    """The simulated stack processor (host view: its debug port)."""

    def __init__(self) -> None:
        # Array-backed memory (see :mod:`repro.targets.statebuf`): save and
        # restore are single buffer copies.  Only ever mutated in place —
        # fault overlays and the fused fast loop alias this container.
        self.memory = statebuf.new_words(MEMORY_WORDS)
        self.program_limit = DATA_BASE  # stores below this are violations
        self.dstack = [0] * DATA_STACK_CELLS
        self.dparity = [0] * DATA_STACK_CELLS
        self.dsp = 0  # next free data-stack cell
        self.rstack = [0] * RETURN_STACK_CELLS
        self.rparity = [0] * RETURN_STACK_CELLS
        self.rsp = 0
        self.pc = 0
        self.cycle = 0
        self.iteration = 0
        self.halted = False
        self.detection: dict | None = None
        self.input_ports: dict[int, int] = {}
        self.output_ports: dict[int, int] = {}
        self.output_log: list[tuple[int, int, int]] = []
        self.trace_hook: Callable[[int, int, str], None] | None = None
        self.mem_hook: Callable[[int, str, int], None] | None = None
        self.post_step_hooks: list[Callable[["StackMachine"], None]] = []
        #: Fast-path control, mirroring the Thor CPU: when True and no
        #: observers are attached, :meth:`run` uses the fused loop.
        self.fast = True
        #: Diagnostic counts of run-loop segments entered (fused fast
        #: loop vs. reference step loop); not architectural state, so
        #: not checkpointed.
        self.fast_segments = 0
        self.ref_segments = 0

    # ------------------------------------------------------------------
    def reset(self, entry_point: int = 0) -> None:
        # In-place clears: the scan chains hold references to these
        # lists (they are the machine's physical cells).
        self.dstack[:] = [0] * DATA_STACK_CELLS
        self.dparity[:] = [0] * DATA_STACK_CELLS
        self.dsp = 0
        self.rstack[:] = [0] * RETURN_STACK_CELLS
        self.rparity[:] = [0] * RETURN_STACK_CELLS
        self.rsp = 0
        self.pc = entry_point
        self.cycle = 0
        self.iteration = 0
        self.halted = False
        self.detection = None
        self.input_ports.clear()
        self.output_ports.clear()
        self.output_log.clear()
        self.post_step_hooks.clear()

    def clear_memory(self) -> None:
        statebuf.zero_fill(self.memory)

    def load_image(self, address: int, words) -> None:
        """Download a block of words (workload image, input data) in one
        buffer copy — the debug-port analogue of the Thor test card's
        DMA download."""
        block = statebuf.words_from(words, WORD_MASK)
        self.memory[address : address + len(block)] = block

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def save_state(self) -> dict:
        """Snapshot the complete machine state.  Hooks are not captured:
        checkpoints are taken on fault-free prefixes, before overlays,
        and trace hooks belong to the host."""
        return {
            "memory": statebuf.save_words(self.memory),
            "program_limit": self.program_limit,
            "dstack": self.dstack.copy(),
            "dparity": self.dparity.copy(),
            "dsp": self.dsp,
            "rstack": self.rstack.copy(),
            "rparity": self.rparity.copy(),
            "rsp": self.rsp,
            "pc": self.pc,
            "cycle": self.cycle,
            "iteration": self.iteration,
            "halted": self.halted,
            "detection": self.detection,
            "input_ports": dict(self.input_ports),
            "output_ports": dict(self.output_ports),
            "output_log": list(self.output_log),
        }

    def restore_state(self, state: dict) -> None:
        # In-place copies for the cell arrays: the scan chains hold
        # references to these exact lists (see reset()).
        statebuf.restore_words(self.memory, state["memory"])
        self.program_limit = state["program_limit"]
        self.dstack[:] = state["dstack"]
        self.dparity[:] = state["dparity"]
        self.dsp = state["dsp"]
        self.rstack[:] = state["rstack"]
        self.rparity[:] = state["rparity"]
        self.rsp = state["rsp"]
        self.pc = state["pc"]
        self.cycle = state["cycle"]
        self.iteration = state["iteration"]
        self.halted = state["halted"]
        self.detection = state["detection"]
        self.input_ports = dict(state["input_ports"])
        self.output_ports = dict(state["output_ports"])
        self.output_log = list(state["output_log"])
        self.post_step_hooks = []

    # ------------------------------------------------------------------
    # Stack primitives (parity maintained on write, checked on read)
    # ------------------------------------------------------------------
    def _dpush(self, value: int) -> None:
        if self.dsp >= DATA_STACK_CELLS:
            raise _Detected("stack_bounds", "data stack overflow")
        value &= WORD_MASK
        self.dstack[self.dsp] = value
        self.dparity[self.dsp] = _parity(value)
        self.dsp += 1

    def _dpop(self) -> int:
        if self.dsp <= 0:
            raise _Detected("stack_bounds", "data stack underflow")
        if self.dsp > DATA_STACK_CELLS:  # a corrupted pointer
            raise _Detected("stack_bounds", "data stack pointer out of range")
        self.dsp -= 1
        value = self.dstack[self.dsp]
        if _parity(value) != self.dparity[self.dsp]:
            raise _Detected(
                "dstack_parity", f"data-stack cell {self.dsp} parity mismatch"
            )
        return value

    def _rpush(self, value: int) -> None:
        if self.rsp >= RETURN_STACK_CELLS:
            raise _Detected("stack_bounds", "return stack overflow")
        value &= WORD_MASK
        self.rstack[self.rsp] = value
        self.rparity[self.rsp] = _parity(value)
        self.rsp += 1

    def _rpop(self) -> int:
        if self.rsp <= 0:
            raise _Detected("stack_bounds", "return stack underflow")
        if self.rsp > RETURN_STACK_CELLS:  # a corrupted pointer
            raise _Detected("stack_bounds", "return stack pointer out of range")
        self.rsp -= 1
        value = self.rstack[self.rsp]
        if _parity(value) != self.rparity[self.rsp]:
            raise _Detected(
                "rstack_parity", f"return-stack cell {self.rsp} parity mismatch"
            )
        return value

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def _mem_read(self, address: int) -> int:
        if not 0 <= address < MEMORY_WORDS:
            raise _Detected("mem_violation", f"read at 0x{address:04X}")
        if self.mem_hook is not None:
            self.mem_hook(self.cycle, "read", address)
        return self.memory[address]

    def _mem_write(self, address: int, value: int) -> None:
        if not 0 <= address < MEMORY_WORDS:
            raise _Detected("mem_violation", f"write at 0x{address:04X}")
        if address < self.program_limit:
            raise _Detected("mem_violation", f"write into program area 0x{address:04X}")
        if self.mem_hook is not None:
            self.mem_hook(self.cycle, "write", address)
        self.memory[address] = value & WORD_MASK

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _raise_detection(self, mechanism: str, detail: str) -> None:
        self.detection = {
            "mechanism": mechanism,
            "cycle": self.cycle,
            "pc": self.pc,
            "detail": detail,
        }
        self.halted = True

    def step(self) -> str | None:
        """Execute one instruction.  Returns ``"halted"``, ``"detected"``
        or ``"iteration"`` when the instruction ended/paused the run."""
        if self.halted:
            return "detected" if self.detection else "halted"
        pc = self.pc
        if not 0 <= pc < self.program_limit:
            self._raise_detection("mem_violation", f"fetch at 0x{pc:04X}")
            return "detected"
        try:
            inst = s_decode(self.memory[pc])
        except SIllegalOpcode as exc:
            self._raise_detection("illegal_opcode", str(exc))
            return "detected"
        if self.trace_hook is not None:
            self.trace_hook(self.cycle, pc, inst.op.name)
        try:
            outcome = self._execute(inst)
        except _Detected as exc:
            self._raise_detection(exc.mechanism, exc.detail)
            return "detected"
        self.cycle += 1
        if self.post_step_hooks:
            for hook in self.post_step_hooks:
                hook(self)
        return outcome

    def _execute(self, inst: SInstruction) -> str | None:
        """Dispatch one decoded instruction through its bound handler."""
        handler = inst.handler
        if handler is None:
            handler = _S_HANDLERS[inst.op]
            object.__setattr__(inst, "handler", handler)
        return handler(self, inst)

    @staticmethod
    def _binary(op: SOp, a: int, b: int) -> int:
        if op is SOp.ADD:
            return a + b
        if op is SOp.SUB:
            return a - b
        if op is SOp.MUL:
            return _signed(a) * _signed(b)
        if op is SOp.DIV:
            if _signed(b) == 0:
                raise _Detected("arithmetic", "DIV by zero")
            return int(_signed(a) / _signed(b))
        if op is SOp.AND:
            return a & b
        if op is SOp.OR:
            return a | b
        if op is SOp.XOR:
            return a ^ b
        if op is SOp.LT:
            return 1 if _signed(a) < _signed(b) else 0
        if op is SOp.EQ:
            return 1 if a == b else 0
        raise AssertionError(op)  # pragma: no cover

    def run(self, max_cycles: int, stop_at_cycle: int | None = None) -> str:
        """Run to a terminal condition; mirrors the Thor CPU contract.

        Returns one of ``"halted"``, ``"detected"``, ``"cycle_limit"``,
        ``"cycle_break"``, ``"iteration"``.

        Routes through the fused fast loop when nothing observes
        individual steps; otherwise (or with ``fast = False``) uses the
        reference step loop.  Both produce bit-identical state.
        """
        if (
            self.fast
            and self.trace_hook is None
            and self.mem_hook is None
            and not self.post_step_hooks
        ):
            return self._run_fast(max_cycles, stop_at_cycle)
        return self._run_observed(max_cycles, stop_at_cycle)

    def _run_observed(self, max_cycles: int, stop_at_cycle: int | None = None) -> str:
        """Reference run loop: one observable :meth:`step` at a time."""
        self.ref_segments += 1
        while True:
            if self.halted:
                return "detected" if self.detection else "halted"
            if stop_at_cycle is not None and self.cycle >= stop_at_cycle:
                return "cycle_break"
            if self.cycle >= max_cycles:
                return "cycle_limit"
            outcome = self.step()
            if outcome is not None:
                return outcome

    def _run_fast(self, max_cycles: int, stop_at_cycle: int | None = None) -> str:
        """Fused run loop: :meth:`step` inlined, hot state in locals.

        The two cycle bounds fold into one precomputed ``next_stop``
        (tie resolves to ``cycle_break``: the reference loop checks
        ``stop_at_cycle`` first).  ``memory`` and ``program_limit`` are
        safe to hoist — stores mutate the memory list in place and
        nothing changes the program limit mid-run.
        """
        self.fast_segments += 1
        if stop_at_cycle is not None and stop_at_cycle <= max_cycles:
            next_stop = stop_at_cycle
            stop_outcome = "cycle_break"
        else:
            next_stop = max_cycles
            stop_outcome = "cycle_limit"

        memory = self.memory
        program_limit = self.program_limit
        decode_cache = S_DECODE_CACHE
        handlers = _S_HANDLERS
        bind = object.__setattr__

        while True:
            if self.halted:
                return "detected" if self.detection else "halted"
            cycle = self.cycle
            if cycle >= next_stop:
                return stop_outcome
            pc = self.pc
            if not 0 <= pc < program_limit:
                self._raise_detection("mem_violation", f"fetch at 0x{pc:04X}")
                return "detected"
            word = memory[pc]
            inst = decode_cache.get(word)
            if inst is None:
                try:
                    inst = s_decode(word)
                except SIllegalOpcode as exc:
                    self._raise_detection("illegal_opcode", str(exc))
                    return "detected"
            handler = inst.handler
            if handler is None:
                handler = handlers[inst.op]
                bind(inst, "handler", handler)
            try:
                outcome = handler(self, inst)
            except _Detected as exc:
                self._raise_detection(exc.mechanism, exc.detail)
                return "detected"
            self.cycle = cycle + 1
            if outcome is not None:
                return outcome


# ----------------------------------------------------------------------
# Per-opcode handlers (same contract as the Thor CPU's: full semantics
# of one opcode including the PC update, returning the outcome string or
# None; _Detected propagates to the caller).
# ----------------------------------------------------------------------


def _sh_nop(m: StackMachine, inst: SInstruction) -> str | None:
    m.pc = (m.pc + 1) & 0xFFFF
    return None


def _sh_halt(m: StackMachine, inst: SInstruction) -> str | None:
    m.halted = True
    m.pc = (m.pc + 1) & 0xFFFF
    return "halted"


def _sh_iter(m: StackMachine, inst: SInstruction) -> str | None:
    m.iteration += 1
    m.pc = (m.pc + 1) & 0xFFFF
    return "iteration"


def _sh_pushi(m: StackMachine, inst: SInstruction) -> str | None:
    m._dpush(inst.operand)
    m.pc = (m.pc + 1) & 0xFFFF
    return None


def _sh_pushih(m: StackMachine, inst: SInstruction) -> str | None:
    value = m._dpop()
    m._dpush((value & 0xFFFF) | (inst.operand << 16))
    m.pc = (m.pc + 1) & 0xFFFF
    return None


def _sh_load(m: StackMachine, inst: SInstruction) -> str | None:
    m._dpush(m._mem_read(inst.operand))
    m.pc = (m.pc + 1) & 0xFFFF
    return None


def _sh_store(m: StackMachine, inst: SInstruction) -> str | None:
    m._mem_write(inst.operand, m._dpop())
    m.pc = (m.pc + 1) & 0xFFFF
    return None


def _sh_loadi(m: StackMachine, inst: SInstruction) -> str | None:
    m._dpush(m._mem_read(m._dpop() & 0xFFFF))
    m.pc = (m.pc + 1) & 0xFFFF
    return None


def _sh_storei(m: StackMachine, inst: SInstruction) -> str | None:
    address = m._dpop() & 0xFFFF
    m._mem_write(address, m._dpop())
    m.pc = (m.pc + 1) & 0xFFFF
    return None


def _sh_dup(m: StackMachine, inst: SInstruction) -> str | None:
    value = m._dpop()
    m._dpush(value)
    m._dpush(value)
    m.pc = (m.pc + 1) & 0xFFFF
    return None


def _sh_drop(m: StackMachine, inst: SInstruction) -> str | None:
    m._dpop()
    m.pc = (m.pc + 1) & 0xFFFF
    return None


def _sh_swap(m: StackMachine, inst: SInstruction) -> str | None:
    b = m._dpop()
    a = m._dpop()
    m._dpush(b)
    m._dpush(a)
    m.pc = (m.pc + 1) & 0xFFFF
    return None


def _sh_over(m: StackMachine, inst: SInstruction) -> str | None:
    b = m._dpop()
    a = m._dpop()
    m._dpush(a)
    m._dpush(b)
    m._dpush(a)
    m.pc = (m.pc + 1) & 0xFFFF
    return None


def _sh_add(m: StackMachine, inst: SInstruction) -> str | None:
    b = m._dpop()
    a = m._dpop()
    m._dpush(a + b)
    m.pc = (m.pc + 1) & 0xFFFF
    return None


def _sh_sub(m: StackMachine, inst: SInstruction) -> str | None:
    b = m._dpop()
    a = m._dpop()
    m._dpush(a - b)
    m.pc = (m.pc + 1) & 0xFFFF
    return None


def _sh_mul(m: StackMachine, inst: SInstruction) -> str | None:
    b = m._dpop()
    a = m._dpop()
    m._dpush(_signed(a) * _signed(b))
    m.pc = (m.pc + 1) & 0xFFFF
    return None


def _sh_div(m: StackMachine, inst: SInstruction) -> str | None:
    b = m._dpop()
    a = m._dpop()
    if _signed(b) == 0:
        raise _Detected("arithmetic", "DIV by zero")
    m._dpush(int(_signed(a) / _signed(b)))
    m.pc = (m.pc + 1) & 0xFFFF
    return None


def _sh_and(m: StackMachine, inst: SInstruction) -> str | None:
    b = m._dpop()
    a = m._dpop()
    m._dpush(a & b)
    m.pc = (m.pc + 1) & 0xFFFF
    return None


def _sh_or(m: StackMachine, inst: SInstruction) -> str | None:
    b = m._dpop()
    a = m._dpop()
    m._dpush(a | b)
    m.pc = (m.pc + 1) & 0xFFFF
    return None


def _sh_xor(m: StackMachine, inst: SInstruction) -> str | None:
    b = m._dpop()
    a = m._dpop()
    m._dpush(a ^ b)
    m.pc = (m.pc + 1) & 0xFFFF
    return None


def _sh_lt(m: StackMachine, inst: SInstruction) -> str | None:
    b = m._dpop()
    a = m._dpop()
    m._dpush(1 if _signed(a) < _signed(b) else 0)
    m.pc = (m.pc + 1) & 0xFFFF
    return None


def _sh_eq(m: StackMachine, inst: SInstruction) -> str | None:
    b = m._dpop()
    a = m._dpop()
    m._dpush(1 if a == b else 0)
    m.pc = (m.pc + 1) & 0xFFFF
    return None


def _sh_not(m: StackMachine, inst: SInstruction) -> str | None:
    m._dpush(~m._dpop())
    m.pc = (m.pc + 1) & 0xFFFF
    return None


def _sh_neg(m: StackMachine, inst: SInstruction) -> str | None:
    m._dpush(-m._dpop())
    m.pc = (m.pc + 1) & 0xFFFF
    return None


def _sh_br(m: StackMachine, inst: SInstruction) -> str | None:
    m.pc = inst.operand
    return None


def _sh_bz(m: StackMachine, inst: SInstruction) -> str | None:
    if m._dpop() == 0:
        m.pc = inst.operand
    else:
        m.pc = (m.pc + 1) & 0xFFFF
    return None


def _sh_bnz(m: StackMachine, inst: SInstruction) -> str | None:
    if m._dpop() != 0:
        m.pc = inst.operand
    else:
        m.pc = (m.pc + 1) & 0xFFFF
    return None


def _sh_call(m: StackMachine, inst: SInstruction) -> str | None:
    m._rpush((m.pc + 1) & 0xFFFF)
    m.pc = inst.operand
    return None


def _sh_ret(m: StackMachine, inst: SInstruction) -> str | None:
    m.pc = m._rpop() & 0xFFFF
    return None


def _sh_in(m: StackMachine, inst: SInstruction) -> str | None:
    m._dpush(m.input_ports.get(inst.operand, 0))
    m.pc = (m.pc + 1) & 0xFFFF
    return None


def _sh_out(m: StackMachine, inst: SInstruction) -> str | None:
    value = m._dpop()
    m.output_ports[inst.operand] = value
    m.output_log.append((m.cycle, inst.operand, value))
    m.pc = (m.pc + 1) & 0xFFFF
    return None


_S_HANDLERS: dict[SOp, Callable[[StackMachine, SInstruction], str | None]] = {
    SOp.NOP: _sh_nop,
    SOp.HALT: _sh_halt,
    SOp.ITER: _sh_iter,
    SOp.PUSHI: _sh_pushi,
    SOp.PUSHIH: _sh_pushih,
    SOp.LOAD: _sh_load,
    SOp.STORE: _sh_store,
    SOp.LOADI: _sh_loadi,
    SOp.STOREI: _sh_storei,
    SOp.DUP: _sh_dup,
    SOp.DROP: _sh_drop,
    SOp.SWAP: _sh_swap,
    SOp.OVER: _sh_over,
    SOp.ADD: _sh_add,
    SOp.SUB: _sh_sub,
    SOp.MUL: _sh_mul,
    SOp.DIV: _sh_div,
    SOp.AND: _sh_and,
    SOp.OR: _sh_or,
    SOp.XOR: _sh_xor,
    SOp.NOT: _sh_not,
    SOp.NEG: _sh_neg,
    SOp.LT: _sh_lt,
    SOp.EQ: _sh_eq,
    SOp.BR: _sh_br,
    SOp.BZ: _sh_bz,
    SOp.BNZ: _sh_bnz,
    SOp.CALL: _sh_call,
    SOp.RET: _sh_ret,
    SOp.IN: _sh_in,
    SOp.OUT: _sh_out,
}

assert set(_S_HANDLERS) == set(SOp), "every opcode needs a handler"
