"""State-vector layout for the trajectory-based simulator.

A complete machine state is one flat byte vector::

    [ 8 x 4B GPRs | 4B EIP | 4B EFLAGS | 4B STATUS | 20B reserved | memory ]

The layout object maps between the three address spaces in play:

* *vector index* — byte offset into the flat state vector (what the
  dependency vector, cache entries, and predictors see),
* *memory address* — the program-visible address (what LOAD/STORE use),
* *register offsets* — fixed header positions for the register file.

Program memory addresses below :data:`RESERVED_LOW` are unmapped and trap,
which turns Mini-C null-pointer dereferences into clean faults.
"""

import struct

from repro.errors import MachineError

REG_BYTES = 4
REG_COUNT = 8

REG_OFF = 0
EIP_OFF = REG_COUNT * REG_BYTES  # 32
EFLAGS_OFF = EIP_OFF + 4  # 36
STATUS_OFF = EFLAGS_OFF + 4  # 40
HEADER_SIZE = 64
MEM_OFF = HEADER_SIZE

#: Lowest mapped program address; accesses below this fault.
RESERVED_LOW = 16

#: STATUS register bit set by HLT.
STATUS_HALTED = 1

#: Stop reasons reported by every run loop (both interpreter tiers,
#: :meth:`Machine.run`, speculative workers). Defined here — the lowest
#: layer both tiers already import.
STOP_HALTED = "halted"
STOP_LIMIT = "limit"
STOP_BREAKPOINT = "breakpoint"

_WORD = struct.Struct("<I")


def read_word(buf, off):
    """Read a little-endian 32-bit word at byte offset ``off``."""
    return _WORD.unpack_from(buf, off)[0]


def write_word(buf, off, value):
    """Write ``value`` (masked to 32 bits) little-endian at ``off``."""
    _WORD.pack_into(buf, off, value & 0xFFFFFFFF)


class StateLayout:
    """Immutable description of a state vector's geometry."""

    __slots__ = ("mem_size", "size")

    def __init__(self, mem_size):
        if mem_size <= 0:
            raise MachineError("mem_size must be positive, got %r" % (mem_size,))
        if mem_size % 4:
            raise MachineError("mem_size must be 4-byte aligned")
        self.mem_size = int(mem_size)
        self.size = MEM_OFF + self.mem_size

    @property
    def n_bits(self):
        """Dimensionality of the state space in bits (the paper's ``n``)."""
        return self.size * 8

    def vec_index(self, addr):
        """Map a program memory address to its state-vector byte index."""
        return MEM_OFF + addr

    def mem_addr(self, index):
        """Map a state-vector byte index back to a program address."""
        if index < MEM_OFF:
            raise MachineError("vector index %d is in the header" % index)
        return index - MEM_OFF

    def check_access(self, addr, width):
        """Validate a ``width``-byte access at program address ``addr``."""
        if addr < RESERVED_LOW or addr + width > self.mem_size:
            from repro.errors import SegmentationFault
            raise SegmentationFault(
                "access of %d bytes at 0x%x outside [0x%x, 0x%x)"
                % (width, addr, RESERVED_LOW, self.mem_size))

    def __eq__(self, other):
        if not isinstance(other, StateLayout):
            return NotImplemented
        return self.mem_size == other.mem_size

    def __hash__(self):
        return hash(("StateLayout", self.mem_size))

    def __repr__(self):
        return "StateLayout(mem_size=%d)" % self.mem_size
