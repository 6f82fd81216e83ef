"""Typed accessors over the flat state vector.

:class:`StateVector` is a thin convenience wrapper around a ``bytearray``.
The hot path (the transition function) bypasses these accessors and works
on the raw buffer directly; everything else — loaders, tests, predictors,
cache inspection — goes through this class.
"""

from repro.errors import MachineError
from repro.isa.registers import Reg
from repro.machine.layout import (
    StateLayout,
    REG_OFF,
    EIP_OFF,
    EFLAGS_OFF,
    STATUS_OFF,
    MEM_OFF,
    STATUS_HALTED,
)

_U32_MASK = 0xFFFFFFFF


class StateVector:
    """A complete machine state: registers, EIP, EFLAGS, STATUS, memory."""

    __slots__ = ("layout", "buf")

    def __init__(self, layout, buf=None):
        if not isinstance(layout, StateLayout):
            raise MachineError("layout must be a StateLayout")
        if buf is None:
            buf = bytearray(layout.size)
        elif len(buf) != layout.size:
            raise MachineError(
                "buffer length %d does not match layout size %d"
                % (len(buf), layout.size))
        self.layout = layout
        self.buf = buf

    # -- construction -----------------------------------------------------

    def clone(self):
        """Deep copy (a distinct point in state space)."""
        return StateVector(self.layout, bytearray(self.buf))

    # -- registers ----------------------------------------------------------

    def get_reg(self, reg):
        off = REG_OFF + 4 * int(reg)
        return int.from_bytes(self.buf[off:off + 4], "little")

    def set_reg(self, reg, value):
        off = REG_OFF + 4 * int(reg)
        self.buf[off:off + 4] = (value & _U32_MASK).to_bytes(4, "little")

    def get_reg_signed(self, reg):
        value = self.get_reg(reg)
        return value - (1 << 32) if value >= (1 << 31) else value

    @property
    def eip(self):
        return int.from_bytes(self.buf[EIP_OFF:EIP_OFF + 4], "little")

    @eip.setter
    def eip(self, value):
        self.buf[EIP_OFF:EIP_OFF + 4] = (value & _U32_MASK).to_bytes(4, "little")

    @property
    def eflags(self):
        return int.from_bytes(self.buf[EFLAGS_OFF:EFLAGS_OFF + 4], "little")

    @eflags.setter
    def eflags(self, value):
        self.buf[EFLAGS_OFF:EFLAGS_OFF + 4] = (value & _U32_MASK).to_bytes(
            4, "little")

    def get_flag(self, flag):
        return bool(self.eflags & int(flag))

    def set_flag(self, flag, on):
        flags = self.eflags
        self.eflags = (flags | int(flag)) if on else (flags & ~int(flag))

    @property
    def status(self):
        return int.from_bytes(self.buf[STATUS_OFF:STATUS_OFF + 4], "little")

    @status.setter
    def status(self, value):
        self.buf[STATUS_OFF:STATUS_OFF + 4] = (value & _U32_MASK).to_bytes(
            4, "little")

    @property
    def halted(self):
        return bool(self.status & STATUS_HALTED)

    # -- memory -------------------------------------------------------------

    def read_u32(self, addr):
        self.layout.check_access(addr, 4)
        off = MEM_OFF + addr
        return int.from_bytes(self.buf[off:off + 4], "little")

    def read_i32(self, addr):
        value = self.read_u32(addr)
        return value - (1 << 32) if value >= (1 << 31) else value

    def write_u32(self, addr, value):
        self.layout.check_access(addr, 4)
        off = MEM_OFF + addr
        self.buf[off:off + 4] = (value & _U32_MASK).to_bytes(4, "little")

    def read_u8(self, addr):
        self.layout.check_access(addr, 1)
        return self.buf[MEM_OFF + addr]

    def read_bytes(self, addr, length):
        self.layout.check_access(addr, length)
        off = MEM_OFF + addr
        return bytes(self.buf[off:off + length])

    def write_bytes(self, addr, data):
        self.layout.check_access(addr, len(data))
        off = MEM_OFF + addr
        self.buf[off:off + len(data)] = data

    def read_words(self, addr, count):
        """Read ``count`` consecutive signed 32-bit words."""
        return [self.read_i32(addr + 4 * i) for i in range(count)]

    # -- comparison -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.layout == other.layout and self.buf == other.buf

    def __hash__(self):
        raise TypeError("StateVector is mutable and unhashable")

    def differing_indices(self, other):
        """Vector indices at which two states differ (for excitations)."""
        if self.layout != other.layout:
            raise MachineError("cannot diff states with different layouts")
        a, b = self.buf, other.buf
        return [i for i in range(len(a)) if a[i] != b[i]]

    def __repr__(self):
        regs = " ".join(
            "%s=%#x" % (r.name.lower(), self.get_reg(r)) for r in Reg)
        return "<StateVector eip=%#x flags=%#x %s%s>" % (
            self.eip, self.eflags, regs, " HALTED" if self.halted else "")
