"""The transition function: execute one instruction on a state vector.

This is the paper's ``transition(uint8_t *x, uint8_t *g, int n)`` (§4.1):
a pure function of the state vector with no hidden state. It fetches the
instruction referenced by EIP, simulates it, writes the resulting changes
back into ``x``, and — when a dependency vector ``g`` is supplied —
updates the byte-granularity read/write FSM described in
:mod:`repro.machine.depvec` on every access it performs.

For speed the hot path works on raw ``bytearray`` buffers and dispatches
through a handler table indexed by opcode. :class:`TransitionContext`
carries the per-program constants (layout, write-protected code range, and
a decode cache that is sound because the code region is immutable).
"""

from repro.errors import (
    CodeWriteError,
    IllegalInstruction,
    MachineError,
    SegmentationFault,
)
from repro.isa.encoding import INSTRUCTION_SIZE, decode
from repro.isa.opcodes import Op
from repro.isa.registers import Reg
from repro.machine.blockcache import BlockCache, fast_path_env_enabled
from repro.machine.layout import (
    EFLAGS_OFF,
    EIP_OFF,
    MEM_OFF,
    RESERVED_LOW,
    STATUS_OFF,
    STATUS_HALTED,
    read_word,
    write_word,
)

_M = 0xFFFFFFFF
_SIGN = 0x80000000

_CF = 1
_ZF = 2
_SF = 4
_OF = 8

_ESP = int(Reg.ESP)
_EAX = int(Reg.EAX)
_EDX = int(Reg.EDX)


def _s32(v):
    """Interpret an unsigned 32-bit value as signed."""
    return v - 0x100000000 if v & _SIGN else v


# -- raw accessors with inline dependency FSM --------------------------------

def _read_reg(buf, g, r):
    off = r * 4
    if g is not None:
        for i in range(off, off + 4):
            if g[i] == 0:
                g[i] = 1
    return (buf[off] | (buf[off + 1] << 8) | (buf[off + 2] << 16)
            | (buf[off + 3] << 24))


def _write_reg(buf, g, r, v):
    off = r * 4
    v &= _M
    buf[off] = v & 0xFF
    buf[off + 1] = (v >> 8) & 0xFF
    buf[off + 2] = (v >> 16) & 0xFF
    buf[off + 3] = (v >> 24) & 0xFF
    if g is not None:
        for i in range(off, off + 4):
            s = g[i]
            if s == 0:
                g[i] = 2
            elif s == 1:
                g[i] = 3


def _read_flags(buf, g):
    if g is not None and g[EFLAGS_OFF] == 0:
        g[EFLAGS_OFF] = 1
    return buf[EFLAGS_OFF]


def _write_flags(buf, g, v):
    buf[EFLAGS_OFF] = v & 0xFF
    if g is not None:
        s = g[EFLAGS_OFF]
        if s == 0:
            g[EFLAGS_OFF] = 2
        elif s == 1:
            g[EFLAGS_OFF] = 3


def _arith_flags(res, cf, of):
    f = 0
    if cf:
        f |= _CF
    if res == 0:
        f |= _ZF
    if res & _SIGN:
        f |= _SF
    if of:
        f |= _OF
    return f


class TransitionContext:
    """Per-program execution context for the transition function.

    Parameters
    ----------
    layout:
        The :class:`repro.machine.layout.StateLayout` of the state vectors
        this context will execute.
    code_range:
        Optional ``(lo, hi)`` program-address pair delimiting the immutable
        code region. When given, stores into it raise
        :class:`repro.errors.CodeWriteError` and decoded instructions are
        memoized by address.
    track_code_reads:
        When True (the faithful mode), instruction fetches mark the fetched
        code bytes as read in the dependency vector. The default False
        keeps cache entries sparse; it is sound because the code region is
        write-protected and therefore trivially matches on every lookup.
    fast_path:
        Tri-state switch for the basic-block translation cache
        (:mod:`repro.machine.blockcache`). ``None`` (the default) follows
        the ``REPRO_FAST_PATH`` environment variable (on unless set to a
        falsy value); ``False`` forces the reference interpreter;
        ``True`` requests the fast path. Either way the fast path only
        activates when a ``code_range`` is given — block translation is
        sound only over write-protected code.
    translations:
        The :class:`repro.machine.blockcache.TranslationStore` of the
        program image this context executes, so that every context of
        the image shares one set of translated blocks
        (:meth:`repro.loader.image.Program.make_context` passes the
        program's). Without one the context keeps a store of its own.
    """

    def __init__(self, layout, code_range=None, track_code_reads=False,
                 fast_path=None, translations=None):
        self.layout = layout
        if code_range is not None:
            lo, hi = code_range
            if lo < 0 or hi > layout.mem_size or lo >= hi:
                raise MachineError("invalid code range (%r, %r)" % (lo, hi))
            self.code_lo, self.code_hi = lo, hi
        else:
            self.code_lo = self.code_hi = None
        self.track_code_reads = bool(track_code_reads)
        self._decode_cache = {}
        self._handlers = _build_handlers()
        if fast_path is None:
            fast_path = fast_path_env_enabled()
        if fast_path and self.code_lo is not None:
            self.fast_path = BlockCache(self, translations)
        else:
            self.fast_path = None

    # -- memory helpers ------------------------------------------------------

    def _check(self, addr, width):
        if addr < RESERVED_LOW or addr + width > self.layout.mem_size:
            raise SegmentationFault(
                "access of %d bytes at 0x%x outside [0x%x, 0x%x)"
                % (width, addr, RESERVED_LOW, self.layout.mem_size))

    def _check_store(self, addr, width):
        self._check(addr, width)
        if self.code_lo is not None and self.code_lo <= addr < self.code_hi:
            raise CodeWriteError(
                "store of %d bytes at 0x%x hits write-protected code "
                "[0x%x, 0x%x)" % (width, addr, self.code_lo, self.code_hi))

    def _mem_read(self, buf, g, addr, width):
        self._check(addr, width)
        off = MEM_OFF + addr
        if g is not None:
            for i in range(off, off + width):
                if g[i] == 0:
                    g[i] = 1
        v = 0
        for k in range(width):
            v |= buf[off + k] << (8 * k)
        return v

    def _mem_write(self, buf, g, addr, value, width):
        self._check_store(addr, width)
        off = MEM_OFF + addr
        for k in range(width):
            buf[off + k] = (value >> (8 * k)) & 0xFF
        if g is not None:
            for i in range(off, off + width):
                s = g[i]
                if s == 0:
                    g[i] = 2
                elif s == 1:
                    g[i] = 3

    def _ea(self, buf, g, mode, rb, imm):
        """Compute an effective address from the memory-operand fields."""
        ea = imm
        if mode:  # any base-relative mode
            base = (rb >> 4) & 0x0F
            ea += _read_reg(buf, g, base)
            if mode >= 2:
                index = rb & 0x0F
                scale = 1 if mode == 2 else (2 if mode == 3 else 4)
                ea += _read_reg(buf, g, index) * scale
        return ea & _M

    def _push(self, buf, g, value):
        sp = (_read_reg(buf, g, _ESP) - 4) & _M
        _write_reg(buf, g, _ESP, sp)
        self._mem_write(buf, g, sp, value, 4)

    def _pop(self, buf, g):
        sp = _read_reg(buf, g, _ESP)
        value = self._mem_read(buf, g, sp, 4)
        _write_reg(buf, g, _ESP, (sp + 4) & _M)
        return value

    # -- fetch/decode ---------------------------------------------------------

    def _fetch(self, buf, g, eip):
        cached = self._decode_cache.get(eip)
        in_code = (self.code_lo is not None
                   and self.code_lo <= eip < self.code_hi)
        if cached is None or not in_code:
            self._check(eip, INSTRUCTION_SIZE)
            off = MEM_OFF + eip
            try:
                cached = decode(buf, off)
            except Exception as exc:
                raise IllegalInstruction(
                    "cannot decode instruction at eip=0x%x: %s" % (eip, exc))
            if in_code:
                self._decode_cache[eip] = cached
        if g is not None and self.track_code_reads:
            off = MEM_OFF + eip
            for i in range(off, off + INSTRUCTION_SIZE):
                if g[i] == 0:
                    g[i] = 1
        return cached

    # -- the transition itself -----------------------------------------------

    def step(self, buf, g=None):
        """Execute one instruction in-place on raw buffer ``buf``.

        ``buf`` is the state vector as a ``bytearray``; ``g`` the optional
        dependency vector of the same length. Returns the opcode executed
        (useful for tracing); raises a :class:`repro.errors.MachineError`
        subclass on faults.
        """
        # Read EIP (a dependency of every instruction).
        if g is not None:
            for i in range(EIP_OFF, EIP_OFF + 4):
                if g[i] == 0:
                    g[i] = 1
        eip = read_word(buf, EIP_OFF)

        op, mode, ra, rb, imm = self._fetch(buf, g, eip)
        handler = self._handlers.get(int(op))
        if handler is None:
            raise IllegalInstruction(
                "no handler for opcode %s at eip=0x%x" % (op, eip))
        next_eip = handler(self, buf, g, mode, ra, rb, imm, eip)

        # Write EIP back (every instruction writes it).
        write_word(buf, EIP_OFF, next_eip)
        if g is not None:
            for i in range(EIP_OFF, EIP_OFF + 4):
                s = g[i]
                if s == 0:
                    g[i] = 2
                elif s == 1:
                    g[i] = 3
        return op


# -- handlers ------------------------------------------------------------------
# Each handler returns the next EIP value. ``self`` is the context.

def _h_nop(self, buf, g, mode, ra, rb, imm, eip):
    return eip + 8


def _h_hlt(self, buf, g, mode, ra, rb, imm, eip):
    buf[STATUS_OFF] |= STATUS_HALTED
    if g is not None:
        s = g[STATUS_OFF]
        if s == 0:
            g[STATUS_OFF] = 2
        elif s == 1:
            g[STATUS_OFF] = 3
    return eip  # halt is a fixed point of the transition function


def _h_mov_rr(self, buf, g, mode, ra, rb, imm, eip):
    _write_reg(buf, g, ra, _read_reg(buf, g, rb))
    return eip + 8


def _h_mov_ri(self, buf, g, mode, ra, rb, imm, eip):
    _write_reg(buf, g, ra, imm & _M)
    return eip + 8


def _h_load(self, buf, g, mode, ra, rb, imm, eip):
    ea = self._ea(buf, g, mode, rb, imm)
    _write_reg(buf, g, ra, self._mem_read(buf, g, ea, 4))
    return eip + 8


def _h_store(self, buf, g, mode, ra, rb, imm, eip):
    ea = self._ea(buf, g, mode, rb, imm)
    self._mem_write(buf, g, ea, _read_reg(buf, g, ra), 4)
    return eip + 8


def _h_load8u(self, buf, g, mode, ra, rb, imm, eip):
    ea = self._ea(buf, g, mode, rb, imm)
    _write_reg(buf, g, ra, self._mem_read(buf, g, ea, 1))
    return eip + 8


def _h_load8s(self, buf, g, mode, ra, rb, imm, eip):
    ea = self._ea(buf, g, mode, rb, imm)
    v = self._mem_read(buf, g, ea, 1)
    if v & 0x80:
        v |= 0xFFFFFF00
    _write_reg(buf, g, ra, v)
    return eip + 8


def _h_store8(self, buf, g, mode, ra, rb, imm, eip):
    ea = self._ea(buf, g, mode, rb, imm)
    self._mem_write(buf, g, ea, _read_reg(buf, g, ra) & 0xFF, 1)
    return eip + 8


def _h_lea(self, buf, g, mode, ra, rb, imm, eip):
    _write_reg(buf, g, ra, self._ea(buf, g, mode, rb, imm))
    return eip + 8


def _h_push_r(self, buf, g, mode, ra, rb, imm, eip):
    self._push(buf, g, _read_reg(buf, g, ra))
    return eip + 8


def _h_push_i(self, buf, g, mode, ra, rb, imm, eip):
    self._push(buf, g, imm & _M)
    return eip + 8


def _h_pop_r(self, buf, g, mode, ra, rb, imm, eip):
    _write_reg(buf, g, ra, self._pop(buf, g))
    return eip + 8


def _h_xchg(self, buf, g, mode, ra, rb, imm, eip):
    a = _read_reg(buf, g, ra)
    b = _read_reg(buf, g, rb)
    _write_reg(buf, g, ra, b)
    _write_reg(buf, g, rb, a)
    return eip + 8


def _add_core(self, buf, g, ra, a, b, eip):
    t = a + b
    res = t & _M
    cf = t > _M
    of = (~(a ^ b)) & (a ^ res) & _SIGN
    _write_reg(buf, g, ra, res)
    _write_flags(buf, g, _arith_flags(res, cf, of))
    return eip + 8


def _h_add_rr(self, buf, g, mode, ra, rb, imm, eip):
    return _add_core(self, buf, g, ra, _read_reg(buf, g, ra),
                     _read_reg(buf, g, rb), eip)


def _h_add_ri(self, buf, g, mode, ra, rb, imm, eip):
    return _add_core(self, buf, g, ra, _read_reg(buf, g, ra), imm & _M, eip)


def _sub_flags(a, b):
    res = (a - b) & _M
    cf = b > a
    of = (a ^ b) & (a ^ res) & _SIGN
    return res, _arith_flags(res, cf, of)


def _h_sub_rr(self, buf, g, mode, ra, rb, imm, eip):
    res, f = _sub_flags(_read_reg(buf, g, ra), _read_reg(buf, g, rb))
    _write_reg(buf, g, ra, res)
    _write_flags(buf, g, f)
    return eip + 8


def _h_sub_ri(self, buf, g, mode, ra, rb, imm, eip):
    res, f = _sub_flags(_read_reg(buf, g, ra), imm & _M)
    _write_reg(buf, g, ra, res)
    _write_flags(buf, g, f)
    return eip + 8


def _h_adc_rr(self, buf, g, mode, ra, rb, imm, eip):
    cf_in = _read_flags(buf, g) & _CF
    a = _read_reg(buf, g, ra)
    b = _read_reg(buf, g, rb)
    t = a + b + cf_in
    res = t & _M
    ssum = _s32(a) + _s32(b) + cf_in
    of = not (-(1 << 31) <= ssum < (1 << 31))
    _write_reg(buf, g, ra, res)
    _write_flags(buf, g, _arith_flags(res, t > _M, of))
    return eip + 8


def _h_sbb_rr(self, buf, g, mode, ra, rb, imm, eip):
    cf_in = _read_flags(buf, g) & _CF
    a = _read_reg(buf, g, ra)
    b = _read_reg(buf, g, rb)
    res = (a - b - cf_in) & _M
    sdiff = _s32(a) - _s32(b) - cf_in
    of = not (-(1 << 31) <= sdiff < (1 << 31))
    _write_reg(buf, g, ra, res)
    _write_flags(buf, g, _arith_flags(res, a < b + cf_in, of))
    return eip + 8


def _imul_core(self, buf, g, ra, a, b, eip):
    full = _s32(a) * _s32(b)
    res = full & _M
    overflow = not (-(1 << 31) <= full < (1 << 31))
    _write_reg(buf, g, ra, res)
    _write_flags(buf, g, _arith_flags(res, overflow, overflow))
    return eip + 8


def _h_imul_rr(self, buf, g, mode, ra, rb, imm, eip):
    return _imul_core(self, buf, g, ra, _read_reg(buf, g, ra),
                      _read_reg(buf, g, rb), eip)


def _h_imul_ri(self, buf, g, mode, ra, rb, imm, eip):
    return _imul_core(self, buf, g, ra, _read_reg(buf, g, ra), imm & _M, eip)


def _h_idiv_r(self, buf, g, mode, ra, rb, imm, eip):
    divisor = _s32(_read_reg(buf, g, ra))
    dividend = _s32(_read_reg(buf, g, _EAX))
    if divisor == 0:
        raise MachineError("signed division by zero at eip=0x%x" % eip)
    q = abs(dividend) // abs(divisor)
    if (dividend < 0) != (divisor < 0):
        q = -q
    rem = dividend - q * divisor
    if not (-(1 << 31) <= q < (1 << 31)):
        raise MachineError("IDIV quotient overflow at eip=0x%x" % eip)
    _write_reg(buf, g, _EAX, q & _M)
    _write_reg(buf, g, _EDX, rem & _M)
    return eip + 8


def _h_udiv_r(self, buf, g, mode, ra, rb, imm, eip):
    divisor = _read_reg(buf, g, ra)
    dividend = _read_reg(buf, g, _EAX)
    if divisor == 0:
        raise MachineError("unsigned division by zero at eip=0x%x" % eip)
    _write_reg(buf, g, _EAX, dividend // divisor)
    _write_reg(buf, g, _EDX, dividend % divisor)
    return eip + 8


def _h_inc_r(self, buf, g, mode, ra, rb, imm, eip):
    a = _read_reg(buf, g, ra)
    res = (a + 1) & _M
    cf = _read_flags(buf, g) & _CF  # INC preserves CF, as on x86
    _write_reg(buf, g, ra, res)
    _write_flags(buf, g, _arith_flags(res, cf, a == 0x7FFFFFFF))
    return eip + 8


def _h_dec_r(self, buf, g, mode, ra, rb, imm, eip):
    a = _read_reg(buf, g, ra)
    res = (a - 1) & _M
    cf = _read_flags(buf, g) & _CF
    _write_reg(buf, g, ra, res)
    _write_flags(buf, g, _arith_flags(res, cf, a == _SIGN))
    return eip + 8


def _h_neg_r(self, buf, g, mode, ra, rb, imm, eip):
    a = _read_reg(buf, g, ra)
    res = (-a) & _M
    _write_reg(buf, g, ra, res)
    _write_flags(buf, g, _arith_flags(res, a != 0, a == _SIGN))
    return eip + 8


def _h_not_r(self, buf, g, mode, ra, rb, imm, eip):
    _write_reg(buf, g, ra, (~_read_reg(buf, g, ra)) & _M)
    return eip + 8


def _logic_core(self, buf, g, ra, res, eip, write_reg=True):
    if write_reg:
        _write_reg(buf, g, ra, res)
    _write_flags(buf, g, _arith_flags(res, False, False))
    return eip + 8


def _h_and_rr(self, buf, g, mode, ra, rb, imm, eip):
    return _logic_core(self, buf, g, ra,
                       _read_reg(buf, g, ra) & _read_reg(buf, g, rb), eip)


def _h_and_ri(self, buf, g, mode, ra, rb, imm, eip):
    return _logic_core(self, buf, g, ra,
                       _read_reg(buf, g, ra) & (imm & _M), eip)


def _h_or_rr(self, buf, g, mode, ra, rb, imm, eip):
    return _logic_core(self, buf, g, ra,
                       _read_reg(buf, g, ra) | _read_reg(buf, g, rb), eip)


def _h_or_ri(self, buf, g, mode, ra, rb, imm, eip):
    return _logic_core(self, buf, g, ra,
                       _read_reg(buf, g, ra) | (imm & _M), eip)


def _h_xor_rr(self, buf, g, mode, ra, rb, imm, eip):
    return _logic_core(self, buf, g, ra,
                       _read_reg(buf, g, ra) ^ _read_reg(buf, g, rb), eip)


def _h_xor_ri(self, buf, g, mode, ra, rb, imm, eip):
    return _logic_core(self, buf, g, ra,
                       _read_reg(buf, g, ra) ^ (imm & _M), eip)


def _shift_core(self, buf, g, ra, a, count, kind, eip):
    count &= 31
    if count == 0:
        _write_reg(buf, g, ra, a)  # value unchanged, but still a write
        return eip + 8
    if kind == "shl":
        res = (a << count) & _M
        cf = (a >> (32 - count)) & 1
    elif kind == "shr":
        res = a >> count
        cf = (a >> (count - 1)) & 1
    else:  # sar
        sa = _s32(a)
        res = (sa >> count) & _M
        cf = (sa >> (count - 1)) & 1
    _write_reg(buf, g, ra, res)
    _write_flags(buf, g, _arith_flags(res, cf, False))
    return eip + 8


def _h_shl_ri(self, buf, g, mode, ra, rb, imm, eip):
    return _shift_core(self, buf, g, ra, _read_reg(buf, g, ra), imm, "shl", eip)


def _h_shl_rr(self, buf, g, mode, ra, rb, imm, eip):
    return _shift_core(self, buf, g, ra, _read_reg(buf, g, ra),
                       _read_reg(buf, g, rb), "shl", eip)


def _h_shr_ri(self, buf, g, mode, ra, rb, imm, eip):
    return _shift_core(self, buf, g, ra, _read_reg(buf, g, ra), imm, "shr", eip)


def _h_shr_rr(self, buf, g, mode, ra, rb, imm, eip):
    return _shift_core(self, buf, g, ra, _read_reg(buf, g, ra),
                       _read_reg(buf, g, rb), "shr", eip)


def _h_sar_ri(self, buf, g, mode, ra, rb, imm, eip):
    return _shift_core(self, buf, g, ra, _read_reg(buf, g, ra), imm, "sar", eip)


def _h_sar_rr(self, buf, g, mode, ra, rb, imm, eip):
    return _shift_core(self, buf, g, ra, _read_reg(buf, g, ra),
                       _read_reg(buf, g, rb), "sar", eip)


def _h_cmp_rr(self, buf, g, mode, ra, rb, imm, eip):
    __, f = _sub_flags(_read_reg(buf, g, ra), _read_reg(buf, g, rb))
    _write_flags(buf, g, f)
    return eip + 8


def _h_cmp_ri(self, buf, g, mode, ra, rb, imm, eip):
    __, f = _sub_flags(_read_reg(buf, g, ra), imm & _M)
    _write_flags(buf, g, f)
    return eip + 8


def _h_test_rr(self, buf, g, mode, ra, rb, imm, eip):
    res = _read_reg(buf, g, ra) & _read_reg(buf, g, rb)
    _write_flags(buf, g, _arith_flags(res, False, False))
    return eip + 8


def _h_test_ri(self, buf, g, mode, ra, rb, imm, eip):
    res = _read_reg(buf, g, ra) & (imm & _M)
    _write_flags(buf, g, _arith_flags(res, False, False))
    return eip + 8


def _h_jmp(self, buf, g, mode, ra, rb, imm, eip):
    return imm & _M


def _h_jmp_r(self, buf, g, mode, ra, rb, imm, eip):
    return _read_reg(buf, g, ra)


def _make_jcc(cond):
    def handler(self, buf, g, mode, ra, rb, imm, eip):
        return (imm & _M) if cond(_read_flags(buf, g)) else eip + 8
    return handler


_COND = {
    Op.JZ: lambda f: f & _ZF,
    Op.JNZ: lambda f: not f & _ZF,
    Op.JL: lambda f: bool(f & _SF) != bool(f & _OF),
    Op.JLE: lambda f: (f & _ZF) or bool(f & _SF) != bool(f & _OF),
    Op.JG: lambda f: not (f & _ZF) and bool(f & _SF) == bool(f & _OF),
    Op.JGE: lambda f: bool(f & _SF) == bool(f & _OF),
    Op.JB: lambda f: f & _CF,
    Op.JBE: lambda f: f & (_CF | _ZF),
    Op.JA: lambda f: not f & (_CF | _ZF),
    Op.JAE: lambda f: not f & _CF,
    Op.JS: lambda f: f & _SF,
    Op.JNS: lambda f: not f & _SF,
    Op.JO: lambda f: f & _OF,
    Op.JNO: lambda f: not f & _OF,
}


def _h_call(self, buf, g, mode, ra, rb, imm, eip):
    self._push(buf, g, eip + 8)
    return imm & _M


def _h_call_r(self, buf, g, mode, ra, rb, imm, eip):
    target = _read_reg(buf, g, ra)
    self._push(buf, g, eip + 8)
    return target


def _h_ret(self, buf, g, mode, ra, rb, imm, eip):
    return self._pop(buf, g)


def _make_setcc(cond):
    def handler(self, buf, g, mode, ra, rb, imm, eip):
        _write_reg(buf, g, ra, 1 if cond(_read_flags(buf, g)) else 0)
        return eip + 8
    return handler


_SET_COND = {
    Op.SETZ: _COND[Op.JZ],
    Op.SETNZ: _COND[Op.JNZ],
    Op.SETL: _COND[Op.JL],
    Op.SETLE: _COND[Op.JLE],
    Op.SETG: _COND[Op.JG],
    Op.SETGE: _COND[Op.JGE],
    Op.SETB: _COND[Op.JB],
    Op.SETA: _COND[Op.JA],
}


def _build_handlers():
    handlers = {
        Op.NOP: _h_nop,
        Op.HLT: _h_hlt,
        Op.MOV_RR: _h_mov_rr,
        Op.MOV_RI: _h_mov_ri,
        Op.LOAD: _h_load,
        Op.STORE: _h_store,
        Op.LOAD8U: _h_load8u,
        Op.LOAD8S: _h_load8s,
        Op.STORE8: _h_store8,
        Op.LEA: _h_lea,
        Op.PUSH_R: _h_push_r,
        Op.PUSH_I: _h_push_i,
        Op.POP_R: _h_pop_r,
        Op.XCHG: _h_xchg,
        Op.ADD_RR: _h_add_rr,
        Op.ADD_RI: _h_add_ri,
        Op.SUB_RR: _h_sub_rr,
        Op.SUB_RI: _h_sub_ri,
        Op.ADC_RR: _h_adc_rr,
        Op.SBB_RR: _h_sbb_rr,
        Op.IMUL_RR: _h_imul_rr,
        Op.IMUL_RI: _h_imul_ri,
        Op.IDIV_R: _h_idiv_r,
        Op.UDIV_R: _h_udiv_r,
        Op.INC_R: _h_inc_r,
        Op.DEC_R: _h_dec_r,
        Op.NEG_R: _h_neg_r,
        Op.NOT_R: _h_not_r,
        Op.AND_RR: _h_and_rr,
        Op.AND_RI: _h_and_ri,
        Op.OR_RR: _h_or_rr,
        Op.OR_RI: _h_or_ri,
        Op.XOR_RR: _h_xor_rr,
        Op.XOR_RI: _h_xor_ri,
        Op.SHL_RI: _h_shl_ri,
        Op.SHL_RR: _h_shl_rr,
        Op.SHR_RI: _h_shr_ri,
        Op.SHR_RR: _h_shr_rr,
        Op.SAR_RI: _h_sar_ri,
        Op.SAR_RR: _h_sar_rr,
        Op.CMP_RR: _h_cmp_rr,
        Op.CMP_RI: _h_cmp_ri,
        Op.TEST_RR: _h_test_rr,
        Op.TEST_RI: _h_test_ri,
        Op.JMP: _h_jmp,
        Op.JMP_R: _h_jmp_r,
        Op.CALL: _h_call,
        Op.CALL_R: _h_call_r,
        Op.RET: _h_ret,
    }
    for op, cond in _COND.items():
        handlers[op] = _make_jcc(cond)
    for op, cond in _SET_COND.items():
        handlers[op] = _make_setcc(cond)
    return {int(op): fn for op, fn in handlers.items()}


def transition(state, dep=None, context=None):
    """Execute one instruction on a :class:`StateVector`.

    This is the convenience form of the paper's ``transition(x, g, n)``;
    performance-sensitive callers hold a :class:`TransitionContext` and
    call :meth:`TransitionContext.step` on raw buffers instead.
    """
    if context is None:
        context = TransitionContext(state.layout)
    buf = dep.buf if dep is not None else None
    return context.step(state.buf, buf)
