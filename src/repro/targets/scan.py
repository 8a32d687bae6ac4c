"""Generic scan-chain modelling shared by all simulated targets.

A scan chain is an ordered sequence of named *elements*, each a bit
field backed by getter/setter closures into a target's state.  Reading
the chain shifts out one long bit vector; writing shifts one back in.
Read-only elements (capture-only scan cells) are skipped on writes.

Bit-vector convention: element 0 occupies the most significant bits of
the chain value; within an element, bit 0 is the least significant bit
of the field.  The chain's total width and per-element offsets are the
target-system data GOOFI stores in the ``TargetSystemData`` table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .statebuf import pack_values


@dataclass(slots=True)
class ScanElement:
    """One named bit field on a scan chain."""

    name: str
    width: int
    getter: Callable[[], int]
    setter: Callable[[int], None] | None = None  # None == read-only

    @property
    def writable(self) -> bool:
        return self.setter is not None

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1


class ScanChain:
    """An ordered collection of scan elements with shift-in/shift-out
    access and per-element addressing."""

    def __init__(self, name: str, elements: list[ScanElement]) -> None:
        self.name = name
        self.elements = list(elements)
        self._by_name = {e.name: e for e in self.elements}
        if len(self._by_name) != len(self.elements):
            raise ValueError(f"duplicate element names in scan chain {name!r}")
        self.width = sum(e.width for e in self.elements)
        # Offset of each element's bit 0, counted from the chain LSB.
        self._offsets: dict[str, int] = {}
        position = self.width
        for element in self.elements:
            position -= element.width
            self._offsets[element.name] = position
        # Precomputed shift plans: full-chain dump/restore loops over
        # plain (closure, mask, offset) tuples instead of re-deriving
        # masks and offsets per element on every shift.  SCIFI bit flips
        # address one element instead (see :meth:`flip_bit`); these
        # plans serve the paper's explicit read/write protocol.
        self._read_plan: list[tuple[Callable[[], int], int, int]] = [
            (e.getter, (1 << e.width) - 1, self._offsets[e.name])
            for e in self.elements
        ]
        self._write_plan: list[tuple[Callable[[int], None], int, int]] = [
            (e.setter, (1 << e.width) - 1, self._offsets[e.name])
            for e in self.elements
            if e.setter is not None
        ]
        self._snapshot_plan: list[Callable[[], int]] = [
            e.getter for e in self.elements
        ]

    # ------------------------------------------------------------------
    def element(self, name: str) -> ScanElement:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no element {name!r} on scan chain {self.name!r}") from None

    def element_names(self) -> list[str]:
        return [e.name for e in self.elements]

    def writable_elements(self) -> list[ScanElement]:
        return [e for e in self.elements if e.writable]

    def offset(self, name: str) -> int:
        """Bit offset (from chain LSB) of element ``name``'s bit 0."""
        return self._offsets[name]

    def bit_position(self, name: str, bit: int) -> int:
        """Absolute chain-bit position of ``bit`` within element ``name``."""
        element = self.element(name)
        if not 0 <= bit < element.width:
            raise ValueError(f"bit {bit} out of range for {name} (width {element.width})")
        return self._offsets[name] + bit

    # ------------------------------------------------------------------
    def read(self) -> int:
        """Shift the chain out: capture every element into one bit vector."""
        value = 0
        for getter, mask, offset in self._read_plan:
            value |= (getter() & mask) << offset
        return value

    def snapshot(self) -> tuple[int, ...]:
        """Capture every element's raw value, in element order.

        The read-only probe path: propagation probes diff snapshots
        element-wise against a golden snapshot taken the same way, so
        this skips both the bit-vector packing of :meth:`read` (the
        expensive half of a full shift-out) and the per-element masking
        (raw values compare consistently on both sides)."""
        return tuple(getter() for getter in self._snapshot_plan)

    def snapshot_packed(self):
        """:meth:`snapshot` packed into an ``array('Q')`` buffer, or
        ``None`` when an element value exceeds 64 bits.

        Two packed snapshots captured the same way compare in a single
        C-level buffer comparison — the probe fast path diffs whole
        chains this way and only walks elements of chains that differ.
        Element values are raw (unmasked), matching :meth:`snapshot`, so
        packed and tuple snapshots diff consistently against golden
        images captured by either method."""
        return pack_values(getter() for getter in self._snapshot_plan)

    def write(self, value: int) -> None:
        """Shift a bit vector in: update every writable element.

        Read-only elements are skipped, mirroring capture-only scan
        cells.  Bits beyond the chain width are ignored.
        """
        for setter, mask, offset in self._write_plan:
            setter((value >> offset) & mask)

    def flip_bit(self, name: str, bit: int) -> None:
        """Invert ``bit`` of element ``name`` in place.

        Observably the same as :meth:`read`, inverting the bit's chain
        position and :meth:`write`, because a shift-in writes every
        other element its own masked value and the targets' setters
        leave state unchanged on such a write.  A read-only element is
        left alone, as a shift-in skips it; the bit is validated the
        same way :meth:`bit_position` does."""
        self.bit_position(name, bit)
        element = self._by_name[name]
        if element.setter is not None:
            element.setter((element.getter() & element.mask) ^ (1 << bit))

    def read_element(self, name: str) -> int:
        return self.element(name).getter()

    def write_element(self, name: str, value: int) -> None:
        element = self.element(name)
        if element.setter is None:
            raise PermissionError(f"scan element {name!r} is read-only")
        element.setter(value & element.mask)

    def describe(self) -> list[dict]:
        """Serialisable description of the chain layout — the content the
        user enters in the paper's target-configuration GUI (Figure 5),
        stored in ``TargetSystemData``."""
        return [
            {
                "name": e.name,
                "width": e.width,
                "offset": self._offsets[e.name],
                "writable": e.writable,
            }
            for e in self.elements
        ]


