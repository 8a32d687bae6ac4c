"""Boundary and internal scan chains of the THOR-RD-sim target.

The SCIFI technique "injects faults via the built-in test-logic, i.e.
boundary scan-chains and internal scan-chains ... This enables faults to
be injected into the pins and many of the internal state elements of an
integrated circuit as well as observation of the internal state".

The generic chain model lives in :mod:`repro.targets.scan`; this module
contributes the THOR-RD-sim chain *builders*: the internal chain
(register file, PC/PSW/IR/MAR/MDR, cycle counter, every cache-line
field) and the boundary chain (I/O port latches plus read-only
address/data bus capture cells).
"""

from __future__ import annotations

from ..scan import ScanChain, ScanElement
from .cpu import ThorCPU
from .isa import NUM_REGISTERS

# ----------------------------------------------------------------------
# Chain construction for the THOR-RD-sim CPU
# ----------------------------------------------------------------------

#: Ports exposed as boundary-scan pin latches.
BOUNDARY_PORTS = (0, 1, 2, 3)


def _reg_element(cpu: ThorCPU, index: int) -> ScanElement:
    def getter() -> int:
        return cpu.regs[index]

    def setter(value: int) -> None:
        cpu.regs[index] = value

    return ScanElement(f"regs.R{index}", 32, getter, setter)


def _attr_element(cpu: ThorCPU, name: str, attr: str, width: int, writable: bool = True) -> ScanElement:
    def getter() -> int:
        return getattr(cpu, attr)

    setter = None
    if writable:

        def setter(value: int) -> None:  # type: ignore[misc]
            setattr(cpu, attr, value)

    return ScanElement(name, width, getter, setter)


def _cache_element(cpu: ThorCPU, cache_name: str, fld: str, width: int) -> ScanElement:
    # Bind the line object and attribute once at chain-build time instead
    # of re-parsing the "<cache>.line<i>.<attr>" path on every access —
    # full-chain dumps touch hundreds of these cells per experiment.
    # Safe because Cache.restore_state mutates lines in place, so the
    # bound CacheLine objects stay the cache's physical lines.
    #
    # The closures are specialised per field to keep full-chain shifts
    # cheap while preserving the lazy-parity contract:
    # * reading valid/tag/data can use the raw slots — materialising the
    #   parity bit does not change them;
    # * reading parity goes through the property (materialises);
    # * writing an *unchanged* value is skipped — the stored fields and
    #   every later parity observation are identical either way, since
    #   deferred parity depends only on the payload;
    # * writing a changed value goes through the property, which settles
    #   the pending parity first (external-mutation semantics).
    cache = getattr(cpu, cache_name)
    line, attr = cache._locate(fld)
    if attr == "valid":

        def getter() -> int:
            return line._valid

        def setter(value: int) -> None:
            if value != line._valid:
                line.valid = value

    elif attr == "tag":

        def getter() -> int:
            return line._tag

        def setter(value: int) -> None:
            if value != line._tag:
                line.tag = value

    elif attr == "data":

        def getter() -> int:
            return line._data

        def setter(value: int) -> None:
            if value != line._data:
                line.data = value

    else:  # parity

        def getter() -> int:
            return line.parity

        def setter(value: int) -> None:
            line.parity = value

    return ScanElement(fld, width, getter, setter)


def build_internal_chain(cpu: ThorCPU) -> ScanChain:
    """The internal scan chain: register file, PC, PSW, IR, MAR, MDR,
    the (read-only) cycle counter, and every cache-line field."""
    elements: list[ScanElement] = []
    for i in range(NUM_REGISTERS):
        elements.append(_reg_element(cpu, i))
    elements.append(_attr_element(cpu, "ctrl.PC", "pc", 16))
    elements.append(_attr_element(cpu, "ctrl.PSW", "psw", 4))
    elements.append(_attr_element(cpu, "ctrl.IR", "ir", 32))
    elements.append(_attr_element(cpu, "ctrl.MAR", "mar", 16))
    elements.append(_attr_element(cpu, "ctrl.MDR", "mdr", 32))
    elements.append(_attr_element(cpu, "ctrl.CYCLE", "cycle", 32, writable=False))
    for cache_name in ("icache", "dcache"):
        cache = getattr(cpu, cache_name)
        for fld, width in cache.scan_fields():
            elements.append(_cache_element(cpu, cache_name, fld, width))
    return ScanChain("internal", elements)


def build_boundary_chain(cpu: ThorCPU) -> ScanChain:
    """The boundary scan chain: I/O port latches (pins) plus the address
    and data bus capture cells (read-only observation points)."""
    elements: list[ScanElement] = []
    for port in BOUNDARY_PORTS:

        def in_getter(p: int = port) -> int:
            return cpu.input_ports.get(p, 0)

        def in_setter(value: int, p: int = port) -> None:
            # An unset latch reads 0; writing it 0 must not create the
            # entry, or a shift-in would change state it only rewrote.
            if value != cpu.input_ports.get(p, 0):
                cpu.input_ports[p] = value

        elements.append(ScanElement(f"pins.IN{port}", 32, in_getter, in_setter))
    for port in BOUNDARY_PORTS:

        def out_getter(p: int = port) -> int:
            return cpu.output_ports.get(p, 0)

        def out_setter(value: int, p: int = port) -> None:
            if value != cpu.output_ports.get(p, 0):
                cpu.output_ports[p] = value

        elements.append(ScanElement(f"pins.OUT{port}", 32, out_getter, out_setter))
    elements.append(_attr_element(cpu, "pins.ABUS", "mar", 16, writable=False))
    elements.append(_attr_element(cpu, "pins.DBUS", "mdr", 32, writable=False))
    return ScanChain("boundary", elements)


def build_scan_chains(cpu: ThorCPU) -> dict[str, ScanChain]:
    """All scan chains of the target, keyed by chain name."""
    return {
        "internal": build_internal_chain(cpu),
        "boundary": build_boundary_chain(cpu),
    }
