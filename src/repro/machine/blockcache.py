"""Basic-block translation cache: the decode-once superblock fast path.

The reference interpreter (:mod:`repro.machine.transition`) pays for
decode, dict dispatch, per-byte EIP assembly, and per-byte dependency-FSM
loops on *every* instruction. Because the code region is write-protected
(stores into it raise :class:`repro.errors.CodeWriteError` before any
byte changes), the instruction stream reachable from any EIP inside it is
immutable, and all of that per-instruction work can be hoisted to
per-block work done once:

* The straight-line run of instructions from an EIP inside the code
  region up to the next control-flow op is decoded once per *program*
  (:class:`TranslationStore`, owned by the
  :class:`repro.loader.image.Program` and shared by every context made
  from it) and translated into a specialized Python function (operands,
  offsets, masks, and immediates pre-resolved into literals), compiled
  with :func:`compile` the first time it is executed.
* Registers live in Python locals for the duration of a block — the
  register file occupies the state-vector header, which program-visible
  memory can never alias — and are flushed back to the state vector only
  at block exit (or at a fault, see below).
* EIP is materialized only at block exits; halt and breakpoint checks run
  once per block instead of once per instruction.
* Dependency tracking is a second variant of each block (a third when
  instruction fetches count as reads), compiled only if it is ever
  run, whose per-instruction byte loops collapse into precomputed
  per-register (offset, width) touch lists applied once per block, with
  memory and EFLAGS marks inlined range-wise at their reference
  positions.

Soundness invariants (see DESIGN.md "Two-tier interpreter"):

* **Immutable code** — translation is valid forever; there is no
  invalidation protocol because a store into the code range faults
  before writing.
* **Break-IP splitting** — ``Machine.run(break_ips=...)`` must stop
  exactly when the machine *arrives* at a break IP, so the block builder
  never lets a break IP become an interior instruction: blocks are split
  there and the breakpoint check at block exit observes the arrival. A
  pooled block is reused under another break set only if discovery
  under that set would find the same shape (:meth:`Block.valid_under`).
* **Fault exactness** — compiled blocks defer register/EIP writeback,
  so every translated instruction that can fault (memory access,
  division) carries recovery metadata; on a
  :class:`repro.errors.MachineError` the block flushes the registers,
  EFLAGS, EIP, and dependency marks to the byte-identical state the
  reference interpreter would have left, then re-raises.
* **Conservative refusal** — instructions the translator cannot prove
  equivalent (register operands >= 8 that would alias the header,
  addressing modes outside the five defined ones, undecodable bytes,
  EIPs outside the code region) simply end the block; execution falls
  back to the reference ``TransitionContext.step`` for them.

The fast path is on by default whenever a context has a code range; set
``REPRO_FAST_PATH=0`` (or pass ``fast_path=False`` to the context) to
fall back to the reference interpreter end to end.
"""

import os
import struct
import threading

from repro.errors import (
    CodeWriteError,
    MachineError,
    SegmentationFault,
)
from repro.isa.encoding import INSTRUCTION_SIZE, decode
from repro.isa.opcodes import Op
from repro.machine.layout import (
    EFLAGS_OFF,
    EIP_OFF,
    MEM_OFF,
    RESERVED_LOW,
    STATUS_OFF,
    STATUS_HALTED,
    STOP_BREAKPOINT,
    STOP_HALTED,
    STOP_LIMIT,
)

_M = 0xFFFFFFFF
_U32 = struct.Struct("<I")
_u32 = _U32.unpack_from
_p32 = _U32.pack_into

#: Upper bound on instructions per translated block (straight-line runs
#: are usually ended far earlier by a control-flow op).
MAX_BLOCK_INSTRUCTIONS = 128

_ENV_VAR = "REPRO_FAST_PATH"


def fast_path_env_enabled():
    """The process-wide default for the fast path (``REPRO_FAST_PATH``)."""
    value = os.environ.get(_ENV_VAR)
    if value is None:
        return True
    return value.strip().lower() not in ("0", "false", "off", "no", "")


# -- dependency-mark helpers ---------------------------------------------------
# The FSM (repro.machine.depvec): a read promotes NULL(0)->READ(1); a
# write promotes NULL->WRITTEN(2) and READ->WAR(3), i.e. write == OR 2.
# The `0 in <slice>` / all-marked guards make re-marking (the steady
# state inside hot loops) a single C-level containment check.

def _mark_read(g, off, width):
    end = off + width
    if 0 in g[off:end]:
        for i in range(off, end):
            if not g[i]:
                g[i] = 1


def _mark_write(g, off, width):
    end = off + width
    for i in range(off, end):
        s = g[i]
        if s < 2:
            g[i] = s | 2


def _mark_code_read(g, off, width):
    # Not a bulk overwrite: the store-protection check tests only a
    # store's start address, so a word store starting just below
    # code_lo can leave WRITTEN/WAR states on the first code bytes.
    end = off + width
    if 0 in g[off:end]:
        for i in range(off, end):
            if not g[i]:
                g[i] = 1


# -- static access metadata ----------------------------------------------------
# Per-instruction ordered register access lists ('r'/'w', reg index), in
# the exact order the reference handlers perform them, plus the number of
# accesses that happen *before* the instruction's fault point (its
# "fault cut"). EFLAGS and STATUS marks are emitted inline by the
# translator (their order can depend on runtime values, e.g. shifts by a
# register count); memory marks are inherently dynamic.

_ESP = 4
_EAX = 0
_EDX = 2

_RR_ARITH = frozenset((Op.ADD_RR, Op.SUB_RR, Op.ADC_RR, Op.SBB_RR,
                       Op.IMUL_RR, Op.AND_RR, Op.OR_RR, Op.XOR_RR,
                       Op.SHL_RR, Op.SHR_RR, Op.SAR_RR))
_RI_ARITH = frozenset((Op.ADD_RI, Op.SUB_RI, Op.IMUL_RI, Op.AND_RI,
                       Op.OR_RI, Op.XOR_RI, Op.SHL_RI, Op.SHR_RI,
                       Op.SAR_RI))
_R_UNARY = frozenset((Op.INC_R, Op.DEC_R, Op.NEG_R, Op.NOT_R))
_LOADS = frozenset((Op.LOAD, Op.LOAD8U, Op.LOAD8S))
_STORES = frozenset((Op.STORE, Op.STORE8))
_JCC = frozenset((Op.JZ, Op.JNZ, Op.JL, Op.JLE, Op.JG, Op.JGE, Op.JB,
                  Op.JBE, Op.JA, Op.JAE, Op.JS, Op.JNS, Op.JO, Op.JNO))
_SETCC = frozenset((Op.SETZ, Op.SETNZ, Op.SETL, Op.SETLE, Op.SETG,
                    Op.SETGE, Op.SETB, Op.SETA))
_TERMINATORS = frozenset((Op.HLT, Op.JMP, Op.JMP_R, Op.CALL, Op.CALL_R,
                          Op.RET)) | _JCC

#: Opcodes that read EFLAGS / write EFLAGS unconditionally. Shifts by a
#: register count write conditionally and are handled inline.
_READS_FLAGS = frozenset((Op.ADC_RR, Op.SBB_RR, Op.INC_R, Op.DEC_R)) \
    | _JCC | _SETCC
_WRITES_FLAGS = frozenset((Op.ADD_RR, Op.ADD_RI, Op.SUB_RR, Op.SUB_RI,
                           Op.ADC_RR, Op.SBB_RR, Op.IMUL_RR, Op.IMUL_RI,
                           Op.INC_R, Op.DEC_R, Op.NEG_R, Op.AND_RR,
                           Op.AND_RI, Op.OR_RR, Op.OR_RI, Op.XOR_RR,
                           Op.XOR_RI, Op.CMP_RR, Op.CMP_RI, Op.TEST_RR,
                           Op.TEST_RI))
_MAYBE_WRITES_FLAGS = frozenset((Op.SHL_RR, Op.SHR_RR, Op.SAR_RR,
                                 Op.SHL_RI, Op.SHR_RI, Op.SAR_RI))
_TOUCHES_FLAGS = _READS_FLAGS | _WRITES_FLAGS | _MAYBE_WRITES_FLAGS

# Source-level condition expressions over the flags byte `fl`
# (CF=1, ZF=2, SF=4, OF=8); SF != OF is bit 2 of fl ^ (fl >> 1).
_COND_SRC = {
    Op.JZ: "fl & 2",
    Op.JNZ: "not fl & 2",
    Op.JL: "(fl ^ (fl >> 1)) & 4",
    Op.JLE: "fl & 2 or (fl ^ (fl >> 1)) & 4",
    Op.JG: "not (fl & 2 or (fl ^ (fl >> 1)) & 4)",
    Op.JGE: "not (fl ^ (fl >> 1)) & 4",
    Op.JB: "fl & 1",
    Op.JBE: "fl & 3",
    Op.JA: "not fl & 3",
    Op.JAE: "not fl & 1",
    Op.JS: "fl & 4",
    Op.JNS: "not fl & 4",
    Op.JO: "fl & 8",
    Op.JNO: "not fl & 8",
    Op.SETZ: "fl & 2",
    Op.SETNZ: "not fl & 2",
    Op.SETL: "(fl ^ (fl >> 1)) & 4",
    Op.SETLE: "fl & 2 or (fl ^ (fl >> 1)) & 4",
    Op.SETG: "not (fl & 2 or (fl ^ (fl >> 1)) & 4)",
    Op.SETGE: "not (fl ^ (fl >> 1)) & 4",
    Op.SETB: "fl & 1",
    Op.SETA: "not fl & 3",
}


def _ea_regs(mode, rb):
    """Register indices read by an effective-address computation."""
    regs = []
    if mode:
        regs.append((rb >> 4) & 0x0F)
        if mode >= 2:
            regs.append(rb & 0x0F)
    return regs


def _reg_accesses(op, mode, ra, rb):
    """Ordered register accesses and the pre-fault cut for one instruction.

    Returns ``(accesses, cut)`` where ``accesses`` is a list of
    ``('r'|'w', reg_index)`` in reference-handler order and ``cut`` is the
    number of accesses performed before the instruction's fault point
    (meaningful only for faultable instructions).
    """
    ea = [("r", r) for r in _ea_regs(mode, rb)]
    if op in (Op.NOP, Op.HLT, Op.JMP, Op.RET) or op in _JCC:
        if op is Op.RET:
            return [("r", _ESP), ("w", _ESP)], 1
        return [], 0
    if op is Op.MOV_RR:
        return [("r", rb), ("w", ra)], 2
    if op in (Op.MOV_RI,) or op in _SETCC:
        return [("w", ra)], 1
    if op in _LOADS:
        return ea + [("w", ra)], len(ea)
    if op in _STORES:
        return ea + [("r", ra)], len(ea) + 1
    if op is Op.LEA:
        return ea + [("w", ra)], len(ea) + 1
    if op is Op.PUSH_R:
        return [("r", ra), ("r", _ESP), ("w", _ESP)], 3
    if op is Op.PUSH_I:
        return [("r", _ESP), ("w", _ESP)], 2
    if op is Op.POP_R:
        return [("r", _ESP), ("w", _ESP), ("w", ra)], 1
    if op is Op.XCHG:
        return [("r", ra), ("r", rb), ("w", ra), ("w", rb)], 4
    if op in _RR_ARITH:
        return [("r", ra), ("r", rb), ("w", ra)], 3
    if op in _RI_ARITH or op in _R_UNARY:
        return [("r", ra), ("w", ra)], 2
    if op in (Op.CMP_RR, Op.TEST_RR):
        return [("r", ra), ("r", rb)], 2
    if op in (Op.CMP_RI, Op.TEST_RI):
        return [("r", ra)], 1
    if op in (Op.IDIV_R, Op.UDIV_R):
        return [("r", ra), ("r", _EAX), ("w", _EAX), ("w", _EDX)], 2
    if op is Op.JMP_R:
        return [("r", ra)], 1
    if op is Op.CALL:
        return [("r", _ESP), ("w", _ESP)], 2
    if op is Op.CALL_R:
        return [("r", ra), ("r", _ESP), ("w", _ESP)], 3
    raise MachineError("no access metadata for opcode %s" % (op,))


_FAULTABLE = _LOADS | _STORES | frozenset((
    Op.PUSH_R, Op.PUSH_I, Op.POP_R, Op.CALL, Op.CALL_R, Op.RET,
    Op.IDIV_R, Op.UDIV_R))


def _translatable(op, mode, ra, rb):
    """Refuse encodings whose reference semantics would touch the header."""
    if mode > 4:
        return False
    shape_regs = []
    if op in _LOADS or op in _STORES or op is Op.LEA:
        shape_regs = [ra] + _ea_regs(mode, rb)
    elif op in _RR_ARITH or op in (Op.MOV_RR, Op.XCHG, Op.CMP_RR,
                                   Op.TEST_RR):
        shape_regs = [ra, rb]
    elif op in _RI_ARITH or op in _R_UNARY or op in _SETCC or op in (
            Op.MOV_RI, Op.PUSH_R, Op.POP_R, Op.CMP_RI, Op.TEST_RI,
            Op.IDIV_R, Op.UDIV_R, Op.JMP_R, Op.CALL_R):
        shape_regs = [ra]
    return all(r < 8 for r in shape_regs)


# -- the translated block ------------------------------------------------------

#: The compiled forms of a block: plain, dependency-tracking, and
#: dependency-tracking with instruction fetches marked as reads
#: (``track_code_reads`` contexts). Each is an attribute of :class:`Block`.
VARIANTS = ("base", "dep", "dep_code")


class Block:
    """One translated superblock: its shape, and its compiled variants.

    The shape (``addrs``, ``cut_by``) is what :meth:`BlockTranslator.
    discover` found; the variants named in :data:`VARIANTS` start out as
    stubs that emit and compile the variant on its first execution (see
    :meth:`TranslationStore.lookup`), so a variant nobody runs is never
    compiled.
    """

    __slots__ = ("entry", "n", "end", "addrs", "ends_halt", "cut_by",
                 "instrs", "base", "dep", "dep_code",
                 "reg_marks", "prefault_marks", "_reg_offsets",
                 "_uses_flags")

    def __init__(self, instrs, cut_by, reg_marks, prefault_marks,
                 reg_offsets, uses_flags):
        self.instrs = instrs
        self.addrs = tuple(instr[0] for instr in instrs)
        self.entry = self.addrs[0]
        self.n = len(instrs)
        self.end = self.entry + INSTRUCTION_SIZE * self.n
        self.ends_halt = instrs[-1][1] is Op.HLT
        #: The break IP that ended discovery (it would have been the next
        #: instruction), or None when the block ended for a reason that
        #: holds under every break set.
        self.cut_by = cut_by
        #: Per-instruction ordered register marks for fault recovery.
        self.reg_marks = reg_marks
        #: Register marks performed before each instruction's fault point.
        self.prefault_marks = prefault_marks
        self._reg_offsets = reg_offsets
        self._uses_flags = uses_flags

    def valid_under(self, break_set):
        """Whether ``discover(entry, break_set)`` would find this shape:
        no interior address is a break IP (arrival there must stay
        observable), and the break IP that truncated it, if any, is
        still one (else discovery would have run on past it)."""
        return ((self.cut_by is None or self.cut_by in break_set)
                and break_set.isdisjoint(self.addrs[1:]))

    def recover(self, exc, buf, g, pc, reg_values, fl):
        """Rebuild the exact reference fault state after a mid-block fault.

        Called from the generated ``except MachineError`` clause with the
        faulting instruction's index ``pc`` and the current register
        locals; flushes values, EIP, EFLAGS, and (when tracking) the
        dependency-mark prefix the reference interpreter would have left.
        """
        for off, value in zip(self._reg_offsets, reg_values):
            _p32(buf, off, value)
        if self._uses_flags:
            buf[EFLAGS_OFF] = fl
        _p32(buf, EIP_OFF, self.addrs[pc])
        if g is not None:
            for i in range(pc):
                for kind, reg in self.reg_marks[i]:
                    if kind == "r":
                        _mark_read(g, reg * 4, 4)
                    else:
                        _mark_write(g, reg * 4, 4)
            for kind, reg in self.prefault_marks[pc]:
                if kind == "r":
                    _mark_read(g, reg * 4, 4)
                else:
                    _mark_write(g, reg * 4, 4)
            if pc > 0:
                _mark_write(g, EIP_OFF, 4)
        exc._fp_block_index = pc
        return exc


# -- the translator ------------------------------------------------------------

class _Emitter:
    """Accumulates the source of one block variant."""

    def __init__(self, dep, code_reads=False):
        self.dep = dep
        self.code_reads = code_reads
        self.lines = []

    def emit(self, line):
        self.lines.append(line)

    def mark(self, call):
        if self.dep:
            self.lines.append(call)


class BlockTranslator:
    """Translates decoded instruction runs into compiled block functions.

    Knows the image's geometry (memory size, code range) and nothing of
    any context or break set beyond the arguments it is handed.
    """

    def __init__(self, mem_size, code_lo, code_hi):

        def _segv(addr, width):
            raise SegmentationFault(
                "access of %d bytes at 0x%x outside [0x%x, 0x%x)"
                % (width, addr, RESERVED_LOW, mem_size))

        def _codew(addr, width):
            raise CodeWriteError(
                "store of %d bytes at 0x%x hits write-protected code "
                "[0x%x, 0x%x)" % (width, addr, code_lo, code_hi))

        def _div0s(eip):
            raise MachineError("signed division by zero at eip=0x%x" % eip)

        def _div0u(eip):
            raise MachineError("unsigned division by zero at eip=0x%x" % eip)

        def _divovf(eip):
            raise MachineError("IDIV quotient overflow at eip=0x%x" % eip)

        #: Shared globals for every generated function of this image.
        self.namespace = {
            "u32": _u32, "p32": _p32,
            "_mr": _mark_read, "_mw": _mark_write, "_mc": _mark_code_read,
            "_sv": _segv, "_cw": _codew,
            "_dzs": _div0s, "_dzu": _div0u, "_ovf": _divovf,
            "MachineError": MachineError,
        }
        self.mem_size = mem_size
        self.code_lo = code_lo
        self.code_hi = code_hi

    # -- block discovery -----------------------------------------------------

    def discover(self, code, entry, break_set):
        """Decode the straight-line run starting at ``entry``.

        ``code`` is the image's code bytes (address ``code_lo`` first).
        Returns ``(instrs, cut_by)``: a tuple of ``(addr, op, mode, ra,
        rb, imm)`` — empty when the entry instruction itself cannot be
        translated, whatever the break set — and the break IP that ended
        the run, if one did.
        """
        instrs = []
        cut_by = None
        addr = entry
        while True:
            if addr < self.code_lo or addr + INSTRUCTION_SIZE > self.code_hi:
                break
            if addr != entry and addr in break_set:
                cut_by = addr  # split: arrival here must be observable
                break
            try:
                op, mode, ra, rb, imm = decode(code, addr - self.code_lo)
            except Exception:
                break  # undecodable: reference step reports it
            if not _translatable(op, mode, ra, rb):
                break
            instrs.append((addr, op, mode, ra, rb, imm))
            if op in _TERMINATORS:
                break
            addr += INSTRUCTION_SIZE
            if len(instrs) >= MAX_BLOCK_INSTRUCTIONS:
                break
        return tuple(instrs), cut_by

    # -- source generation ---------------------------------------------------

    def _ea_src(self, mode, rb, imm):
        """Source expression for an effective address (masked to 32 bits)."""
        if mode == 0:
            return repr(imm & _M)
        base = "r%d" % ((rb >> 4) & 0x0F)
        if mode == 1:
            if imm == 0:
                return base
            return "(%s + %d) & %d" % (base, imm, _M)
        index = "r%d" % (rb & 0x0F)
        scale = 1 if mode == 2 else (2 if mode == 3 else 4)
        term = index if scale == 1 else "%s * %d" % (index, scale)
        if imm == 0:
            return "(%s + %s) & %d" % (base, term, _M)
        return "(%s + %s + %d) & %d" % (base, term, imm, _M)

    def _emit_flags_read(self, w):
        w.mark("        if not g[%d]: g[%d] = 1" % (EFLAGS_OFF, EFLAGS_OFF))

    def _emit_flags_write(self, w):
        w.mark("        g[%d] |= 2" % EFLAGS_OFF)

    def _emit_mem_check(self, w, ea, width, store):
        w.emit("        if %s < %d or %s > %d: _sv(%s, %d)"
               % (ea, RESERVED_LOW, ea, self.mem_size - width, ea, width))
        if store:
            w.emit("        if %d <= %s < %d: _cw(%s, %d)"
                   % (self.code_lo, ea, self.code_hi, ea, width))

    def _emit_arith_flags(self, w, kind, a, b, res="_r", t="_t"):
        """Emit ``fl = ...`` for an ALU result (CF=1 ZF=2 SF=4 OF=8)."""
        zf_sf = "(2 if %s == 0 else 0) | ((%s >> 29) & 4)" % (res, res)
        if kind == "add":
            cf = "(1 if %s > %d else 0)" % (t, _M)
            of = "(8 if ~(%s ^ %s) & (%s ^ %s) & %d else 0)" % (
                a, b, a, res, 0x80000000)
            w.emit("        fl = %s | %s | %s" % (cf, zf_sf, of))
        elif kind == "sub":
            cf = "(1 if %s > %s else 0)" % (b, a)
            of = "(8 if (%s ^ %s) & (%s ^ %s) & %d else 0)" % (
                a, b, a, res, 0x80000000)
            w.emit("        fl = %s | %s | %s" % (cf, zf_sf, of))
        elif kind == "logic":
            w.emit("        fl = %s" % zf_sf)
        else:
            raise MachineError("unknown flag kind %r" % (kind,))

    def _emit_instr(self, w, index, instr, faultable):
        addr, op, mode, ra, rb, imm = instr
        A = "r%d" % ra
        B = "r%d" % rb
        if w.code_reads:
            w.mark("        _mc(g, %d, 8)" % (MEM_OFF + addr))
        if faultable:
            w.emit("        _pc = %d" % index)

        if op is Op.NOP:
            pass
        elif op is Op.MOV_RR:
            w.emit("        %s = %s" % (A, B))
        elif op is Op.MOV_RI:
            w.emit("        %s = %d" % (A, imm & _M))
        elif op in _LOADS:
            width = 4 if op is Op.LOAD else 1
            w.emit("        _ea = %s" % self._ea_src(mode, rb, imm))
            self._emit_mem_check(w, "_ea", width, store=False)
            w.emit("        _o = _ea + %d" % MEM_OFF)
            w.mark("        _mr(g, _o, %d)" % width)
            if op is Op.LOAD:
                w.emit("        %s, = u32(buf, _o)" % A)
            elif op is Op.LOAD8U:
                w.emit("        %s = buf[_o]" % A)
            else:  # LOAD8S
                w.emit("        _v = buf[_o]")
                w.emit("        %s = _v | 4294967040 if _v & 128 else _v" % A)
        elif op in _STORES:
            width = 4 if op is Op.STORE else 1
            w.emit("        _ea = %s" % self._ea_src(mode, rb, imm))
            self._emit_mem_check(w, "_ea", width, store=True)
            w.emit("        _o = _ea + %d" % MEM_OFF)
            if op is Op.STORE:
                w.emit("        p32(buf, _o, %s)" % A)
            else:
                w.emit("        buf[_o] = %s & 255" % A)
            w.mark("        _mw(g, _o, %d)" % width)
        elif op is Op.LEA:
            w.emit("        %s = %s" % (A, self._ea_src(mode, rb, imm)))
        elif op in (Op.PUSH_R, Op.PUSH_I):
            value = A if op is Op.PUSH_R else repr(imm & _M)
            if op is Op.PUSH_R and ra == _ESP:
                w.emit("        _v = r4")
                value = "_v"
            w.emit("        r4 = (r4 - 4) & %d" % _M)
            self._emit_mem_check(w, "r4", 4, store=True)
            w.emit("        _o = r4 + %d" % MEM_OFF)
            w.emit("        p32(buf, _o, %s)" % value)
            w.mark("        _mw(g, _o, 4)")
        elif op is Op.POP_R:
            self._emit_mem_check(w, "r4", 4, store=False)
            w.emit("        _o = r4 + %d" % MEM_OFF)
            w.mark("        _mr(g, _o, 4)")
            w.emit("        _v, = u32(buf, _o)")
            w.emit("        r4 = (r4 + 4) & %d" % _M)
            w.emit("        %s = _v" % A)
        elif op is Op.XCHG:
            if ra != rb:
                w.emit("        %s, %s = %s, %s" % (A, B, B, A))
        elif op in (Op.ADD_RR, Op.ADD_RI):
            b = B if op is Op.ADD_RR else repr(imm & _M)
            w.emit("        _t = %s + %s" % (A, b))
            w.emit("        _r = _t & %d" % _M)
            self._emit_arith_flags(w, "add", A, b)
            self._emit_flags_write(w)
            w.emit("        %s = _r" % A)
        elif op in (Op.SUB_RR, Op.SUB_RI, Op.CMP_RR, Op.CMP_RI):
            b = B if op in (Op.SUB_RR, Op.CMP_RR) else repr(imm & _M)
            w.emit("        _r = (%s - %s) & %d" % (A, b, _M))
            self._emit_arith_flags(w, "sub", A, b)
            self._emit_flags_write(w)
            if op in (Op.SUB_RR, Op.SUB_RI):
                w.emit("        %s = _r" % A)
        elif op is Op.ADC_RR:
            self._emit_flags_read(w)
            w.emit("        _ci = fl & 1")
            w.emit("        _t = %s + %s + _ci" % (A, B))
            w.emit("        _r = _t & %d" % _M)
            w.emit("        _ss = (%s - 4294967296 if %s & 2147483648 else %s)"
                   " + (%s - 4294967296 if %s & 2147483648 else %s) + _ci"
                   % (A, A, A, B, B, B))
            w.emit("        fl = (1 if _t > %d else 0) | (2 if _r == 0 else 0)"
                   " | ((_r >> 29) & 4)"
                   " | (0 if -2147483648 <= _ss < 2147483648 else 8)" % _M)
            self._emit_flags_write(w)
            w.emit("        %s = _r" % A)
        elif op is Op.SBB_RR:
            self._emit_flags_read(w)
            w.emit("        _ci = fl & 1")
            w.emit("        _r = (%s - %s - _ci) & %d" % (A, B, _M))
            w.emit("        _sd = (%s - 4294967296 if %s & 2147483648 else %s)"
                   " - (%s - 4294967296 if %s & 2147483648 else %s) - _ci"
                   % (A, A, A, B, B, B))
            w.emit("        fl = (1 if %s < %s + _ci else 0)"
                   " | (2 if _r == 0 else 0) | ((_r >> 29) & 4)"
                   " | (0 if -2147483648 <= _sd < 2147483648 else 8)" % (A, B))
            self._emit_flags_write(w)
            w.emit("        %s = _r" % A)
        elif op in (Op.IMUL_RR, Op.IMUL_RI):
            if op is Op.IMUL_RR:
                w.emit("        _sb = %s - 4294967296 if %s & 2147483648"
                       " else %s" % (B, B, B))
                sb = "_sb"
            else:
                sb = repr(imm)  # decode() already sign-extended
            w.emit("        _sa = %s - 4294967296 if %s & 2147483648 else %s"
                   % (A, A, A))
            w.emit("        _f = _sa * %s" % sb)
            w.emit("        _r = _f & %d" % _M)
            w.emit("        fl = (0 if -2147483648 <= _f < 2147483648 else 9)"
                   " | (2 if _r == 0 else 0) | ((_r >> 29) & 4)")
            self._emit_flags_write(w)
            w.emit("        %s = _r" % A)
        elif op in (Op.IDIV_R, Op.UDIV_R):
            if op is Op.IDIV_R:
                w.emit("        _d = %s - 4294967296 if %s & 2147483648"
                       " else %s" % (A, A, A))
                w.emit("        if _d == 0: _dzs(%d)" % addr)
                w.emit("        _n = r0 - 4294967296 if r0 & 2147483648"
                       " else r0")
                w.emit("        _q = abs(_n) // abs(_d)")
                w.emit("        if (_n < 0) != (_d < 0): _q = -_q")
                w.emit("        _rm = _n - _q * _d")
                w.emit("        if not -2147483648 <= _q < 2147483648:"
                       " _ovf(%d)" % addr)
                w.emit("        r0 = _q & %d" % _M)
                w.emit("        r2 = _rm & %d" % _M)
            else:
                w.emit("        if %s == 0: _dzu(%d)" % (A, addr))
                w.emit("        _q, _rm = divmod(r0, %s)" % A)
                w.emit("        r0 = _q")
                w.emit("        r2 = _rm")
        elif op in (Op.INC_R, Op.DEC_R):
            self._emit_flags_read(w)
            delta = "+ 1" if op is Op.INC_R else "- 1"
            edge = 0x7FFFFFFF if op is Op.INC_R else 0x80000000
            w.emit("        _r = (%s %s) & %d" % (A, delta, _M))
            w.emit("        fl = (fl & 1) | (2 if _r == 0 else 0)"
                   " | ((_r >> 29) & 4) | (8 if %s == %d else 0)" % (A, edge))
            self._emit_flags_write(w)
            w.emit("        %s = _r" % A)
        elif op is Op.NEG_R:
            w.emit("        _r = (-%s) & %d" % (A, _M))
            w.emit("        fl = (1 if %s else 0) | (2 if _r == 0 else 0)"
                   " | ((_r >> 29) & 4) | (8 if %s == 2147483648 else 0)"
                   % (A, A))
            self._emit_flags_write(w)
            w.emit("        %s = _r" % A)
        elif op is Op.NOT_R:
            w.emit("        %s = %s ^ %d" % (A, A, _M))
        elif op in (Op.AND_RR, Op.AND_RI, Op.OR_RR, Op.OR_RI, Op.XOR_RR,
                    Op.XOR_RI, Op.TEST_RR, Op.TEST_RI):
            sym = {"AND": "&", "OR": "|", "XOR": "^", "TEST": "&"}[
                op.name.split("_")[0]]
            b = B if op.name.endswith("RR") else repr(imm & _M)
            w.emit("        _r = %s %s %s" % (A, sym, b))
            self._emit_arith_flags(w, "logic", A, b)
            self._emit_flags_write(w)
            if op not in (Op.TEST_RR, Op.TEST_RI):
                w.emit("        %s = _r" % A)
        elif op in (Op.SHL_RI, Op.SHR_RI, Op.SAR_RI):
            count = imm & 31
            if count:
                self._emit_shift(w, op.name[:3], A, repr(count), indent=8)
                self._emit_flags_write(w)
                w.emit("        %s = _r" % A)
        elif op in (Op.SHL_RR, Op.SHR_RR, Op.SAR_RR):
            w.emit("        _c = %s & 31" % B)
            w.emit("        if _c:")
            self._emit_shift(w, op.name[:3], A, "_c", indent=12)
            if w.dep:
                w.emit("            g[%d] |= 2" % EFLAGS_OFF)
            w.emit("            %s = _r" % A)
        elif op in _SETCC:
            self._emit_flags_read(w)
            w.emit("        %s = 1 if (%s) else 0" % (A, _COND_SRC[op]))
        elif op is Op.HLT:
            w.emit("        buf[%d] |= %d" % (STATUS_OFF, STATUS_HALTED))
            w.mark("        g[%d] |= 2" % STATUS_OFF)
            w.emit("        _nx = %d" % addr)
        elif op is Op.JMP:
            w.emit("        _nx = %d" % (imm & _M))
        elif op is Op.JMP_R:
            w.emit("        _nx = %s" % A)
        elif op in _JCC:
            self._emit_flags_read(w)
            w.emit("        _nx = %d if (%s) else %d"
                   % (imm & _M, _COND_SRC[op], addr + 8))
        elif op in (Op.CALL, Op.CALL_R):
            if op is Op.CALL_R:
                w.emit("        _tg = %s" % A)
            w.emit("        r4 = (r4 - 4) & %d" % _M)
            self._emit_mem_check(w, "r4", 4, store=True)
            w.emit("        _o = r4 + %d" % MEM_OFF)
            w.emit("        p32(buf, _o, %d)" % ((addr + 8) & _M))
            w.mark("        _mw(g, _o, 4)")
            w.emit("        _nx = %s"
                   % (repr(imm & _M) if op is Op.CALL else "_tg"))
        elif op is Op.RET:
            self._emit_mem_check(w, "r4", 4, store=False)
            w.emit("        _o = r4 + %d" % MEM_OFF)
            w.mark("        _mr(g, _o, 4)")
            w.emit("        _nx, = u32(buf, _o)")
            w.emit("        r4 = (r4 + 4) & %d" % _M)
        else:
            raise MachineError("translator cannot emit opcode %s" % (op,))

    def _emit_shift(self, w, kind, A, count, indent):
        pad = " " * indent
        if kind == "SHL":
            w.emit(pad + "_r = (%s << %s) & %d" % (A, count, _M))
            w.emit(pad + "fl = ((%s >> (32 - %s)) & 1)"
                   " | (2 if _r == 0 else 0) | ((_r >> 29) & 4)" % (A, count))
        elif kind == "SHR":
            w.emit(pad + "_r = %s >> %s" % (A, count))
            w.emit(pad + "fl = ((%s >> (%s - 1)) & 1)"
                   " | (2 if _r == 0 else 0) | ((_r >> 29) & 4)" % (A, count))
        else:  # SAR
            w.emit(pad + "_s = %s - 4294967296 if %s & 2147483648 else %s"
                   % (A, A, A))
            w.emit(pad + "_r = (_s >> %s) & %d" % (count, _M))
            w.emit(pad + "fl = ((_s >> (%s - 1)) & 1)"
                   " | (2 if _r == 0 else 0) | ((_r >> 29) & 4)" % count)

    # -- whole-block assembly -------------------------------------------------

    def translate(self, code, entry, break_set):
        """Analyse the block at ``entry``: shape and fault-recovery
        metadata, no source yet (:meth:`emit` does that per variant).
        ``None`` when the entry instruction cannot be translated."""
        instrs, cut_by = self.discover(code, entry, break_set)
        if not instrs:
            return None
        accesses = []
        cuts = []
        for __, op, mode, ra, rb, __ in instrs:
            acc, cut = _reg_accesses(op, mode, ra, rb)
            accesses.append(tuple(acc))
            cuts.append(cut)
        used_regs = sorted({r for acc in accesses for __, r in acc})
        return Block(
            instrs, cut_by,
            reg_marks=tuple(accesses),
            prefault_marks=tuple(acc[:cut]
                                 for acc, cut in zip(accesses, cuts)),
            reg_offsets=tuple(r * 4 for r in used_regs),
            uses_flags=any(instr[1] in _TOUCHES_FLAGS for instr in instrs),
        )

    def emit(self, block, variant):
        """Generate, compile and return one variant of ``block``."""
        dep = variant != "base"
        instrs = block.instrs
        accesses = block.reg_marks
        flags_used = block._uses_flags
        used_regs = [off // 4 for off in block._reg_offsets]
        written_regs = sorted({r for acc in accesses
                               for kind, r in acc if kind == "w"})
        faultable = [instr[1] in _FAULTABLE for instr in instrs]

        # Collapsed per-register touch list: the FSM net effect of the
        # whole block on a register is determined by its first access
        # kind and whether it is ever written.
        first_kind = {}
        for acc in accesses:
            for kind, reg in acc:
                first_kind.setdefault(reg, kind)

        w = _Emitter(dep)
        w.emit("def _block(%s):" % ("buf, g" if dep else "buf"))
        w.mark("    _mr(g, %d, 4)" % EIP_OFF)
        for r in used_regs:
            w.emit("    r%d, = u32(buf, %d)" % (r, r * 4))
        if flags_used:
            w.emit("    fl = buf[%d]" % EFLAGS_OFF)
        body = _Emitter(dep, code_reads=variant == "dep_code")
        for i, instr in enumerate(instrs):
            self._emit_instr(body, i, instr, faultable[i])
        if instrs[-1][1] not in _TERMINATORS:
            body.emit("        _nx = %d" % block.end)
        if any(faultable):
            w.emit("    _pc = 0")
            w.emit("    try:")
            w.lines.extend(body.lines)
            w.emit("    except MachineError as _e:")
            regs_tuple = "(%s)" % "".join("r%d, " % r for r in used_regs)
            w.emit("        _rec(_e, buf, %s, _pc, %s, %s)"
                   % ("g" if dep else "None", regs_tuple,
                      "fl" if flags_used else "0"))
            w.emit("        raise")
        else:
            # No fault sites: inline the body without the try frame.
            w.lines.extend(line[4:] for line in body.lines)
        for r in written_regs:
            w.emit("    p32(buf, %d, r%d)" % (r * 4, r))
        if flags_used:
            w.emit("    buf[%d] = fl" % EFLAGS_OFF)
        w.emit("    p32(buf, %d, _nx)" % EIP_OFF)
        if dep:
            for reg in used_regs:
                if first_kind[reg] == "r":
                    w.emit("    _mr(g, %d, 4)" % (reg * 4))
            for reg in used_regs:
                if reg in written_regs:
                    w.emit("    _mw(g, %d, 4)" % (reg * 4))
            w.emit("    _mw(g, %d, 4)" % EIP_OFF)
        w.emit("    return _nx")

        namespace = dict(self.namespace)
        namespace["_rec"] = block.recover
        exec(compile("\n".join(w.lines) + "\n",
                     "<block 0x%x+%d/%s>" % (block.entry, block.n, variant),
                     "exec"), namespace)
        return namespace["_block"]


# -- the program-wide store ----------------------------------------------------

class TranslationStore:
    """Every translated block of one program image, whoever asked first.

    A block is a fact about the image's immutable code, so the store
    belongs to the :class:`repro.loader.image.Program` (every context it
    makes shares it; a context built without a program keeps one of its
    own) and blocks are pooled by entry EIP, not by break set: a pooled
    block serves any break set it is :meth:`Block.valid_under`. Nothing
    is ever invalidated or evicted — the code cannot change and the pool
    is bounded by its size. One lock makes translation and variant
    compilation happen once when threads share an image; lookups of
    what is already there take no lock.
    """

    def __init__(self, mem_size, code_lo, code_hi, code=None):
        self.geometry = (mem_size, code_lo, code_hi)
        #: The image's code bytes. A store without a program takes them
        #: from the first state it is asked to translate for.
        self.code = code
        self.translator = BlockTranslator(mem_size, code_lo, code_hi)
        self._pool = {}  # entry EIP -> [Block, ...] | False (refused)
        self._lock = threading.Lock()

    def lookup(self, buf, entry, break_set):
        """The block at ``entry`` under ``break_set`` (translated now if
        no pooled shape fits), or ``False`` when the translator refuses
        the entry instruction."""
        block = self._pooled(entry, break_set)
        if block is None:
            with self._lock:
                block = self._pooled(entry, break_set)
                if block is None:
                    block = self._translate(buf, entry, break_set)
        return block

    def _pooled(self, entry, break_set):
        shapes = self._pool.get(entry)
        if not shapes:
            return shapes  # None: never asked; False: refused
        for block in shapes:
            if block.valid_under(break_set):
                return block
        return None

    def _translate(self, buf, entry, break_set):
        if self.code is None:
            __, lo, hi = self.geometry
            self.code = bytes(buf[MEM_OFF + lo:MEM_OFF + hi])
        block = self.translator.translate(self.code, entry, break_set)
        if block is None:
            self._pool[entry] = False
            return False
        for variant in VARIANTS:  # compiled when first executed
            setattr(block, variant, self._stub(block, variant))
        self._pool.setdefault(entry, []).append(block)
        return block

    def _stub(self, block, variant):
        """What a variant attribute holds until its first execution."""
        def first_call(*args):
            with self._lock:
                if getattr(block, variant) is first_call:
                    setattr(block, variant,
                            self.translator.emit(block, variant))
            return getattr(block, variant)(*args)
        return first_call


# -- the cache and its run loops -----------------------------------------------

class BlockCache:
    """One context's view of a :class:`TranslationStore`, plus the block
    run loops.

    The run loops want an O(1) ``entry EIP -> block`` dict for the break
    set they run under, so each break set a context meets gets one
    (engines reuse a small number: one per recognized phase); a miss
    there asks the store, which translates only what no context of the
    image has translated before. ``False`` entries memoize in-code EIPs
    the translator refused.
    """

    def __init__(self, context, store=None):
        geometry = (context.layout.mem_size, context.code_lo,
                    context.code_hi)
        if store is None:
            store = TranslationStore(*geometry)
        elif store.geometry != geometry:
            raise MachineError(
                "translation store of image %r cannot serve context %r"
                % (store.geometry, geometry))
        self.context = context
        self.store = store
        self._by_break = {}

    # -- statistics ----------------------------------------------------------

    def compiled_block_count(self):
        """Translated blocks this context has met (under any break set)."""
        return sum(sum(1 for b in blocks.values() if b)
                   for blocks in self._by_break.values())

    def blocks_for(self, break_ips):
        key = frozenset(break_ips) if break_ips else frozenset()
        blocks = self._by_break.get(key)
        if blocks is None:
            blocks = self._by_break[key] = {}
        return key, blocks

    # -- run loops -----------------------------------------------------------

    def run(self, buf, g, max_instructions, break_ips):
        """Run until halt, breakpoint arrival, or budget exhaustion.

        Mirrors the reference loop of :meth:`Machine.run` exactly
        (including its stop-reason priorities and its behavior of
        executing at least one instruction when starting *on* a break
        IP). Returns ``(executed, reason)``. On a fault the propagating
        exception carries ``_fp_executed``, the count of instructions
        retired before it.
        """
        context = self.context
        break_set, blocks = self.blocks_for(break_ips)
        lookup = self.store.lookup
        code_lo, code_hi = context.code_lo, context.code_hi
        code_reads = context.track_code_reads
        step = context.step
        remaining = max_instructions
        executed = 0
        eip, = _u32(buf, EIP_OFF)

        while True:
            block = blocks.get(eip)
            if block is None and code_lo <= eip < code_hi:
                block = blocks[eip] = lookup(buf, eip, break_set)
            if block:
                n = block.n
                if remaining is None or n <= remaining:
                    try:
                        eip = (block.base(buf) if g is None
                               else block.dep_code(buf, g) if code_reads
                               else block.dep(buf, g))
                    except MachineError as exc:
                        exc._fp_executed = executed + getattr(
                            exc, "_fp_block_index", 0)
                        raise
                    executed += n
                    if block.ends_halt:
                        return executed, STOP_HALTED
                    if break_set and eip in break_set:
                        return executed, STOP_BREAKPOINT
                    if remaining is not None:
                        remaining -= n
                        if remaining <= 0:
                            return executed, STOP_LIMIT
                    continue
            # Reference single-step: untranslatable EIP or a budget
            # smaller than the next block.
            if remaining is not None and remaining <= 0:
                return executed, STOP_LIMIT
            try:
                step(buf, g)
            except MachineError as exc:
                exc._fp_executed = executed
                raise
            executed += 1
            if buf[STATUS_OFF] & STATUS_HALTED:
                return executed, STOP_HALTED
            eip, = _u32(buf, EIP_OFF)
            if break_set and eip in break_set:
                return executed, STOP_BREAKPOINT
            if remaining is not None:
                remaining -= 1
                if remaining <= 0:
                    return executed, STOP_LIMIT

    def ip_trace(self, buf, max_instructions):
        """Fast-path twin of :meth:`Machine.ip_trace`.

        Returns ``(trace, executed)``; a block contributes its
        precomputed address tuple without re-reading EIP per
        instruction. On a fault the trace is truncated to the addresses
        actually entered (as the reference loop would have built it) but
        is lost to the caller, exactly like the reference path.
        """
        context = self.context
        break_set, blocks = self.blocks_for(None)
        lookup = self.store.lookup
        code_lo, code_hi = context.code_lo, context.code_hi
        step = context.step
        trace = []
        executed = 0
        remaining = max_instructions
        while remaining > 0:
            if buf[STATUS_OFF] & STATUS_HALTED:
                break
            eip, = _u32(buf, EIP_OFF)
            block = blocks.get(eip)
            if block is None and code_lo <= eip < code_hi:
                block = blocks[eip] = lookup(buf, eip, break_set)
            if block and block.n <= remaining:
                trace.extend(block.addrs)
                try:
                    block.base(buf)
                except MachineError as exc:
                    k = getattr(exc, "_fp_block_index", 0)
                    del trace[len(trace) - block.n + k + 1:]
                    exc._fp_executed = executed + k
                    raise
                executed += block.n
                remaining -= block.n
            else:
                trace.append(eip)
                try:
                    step(buf, None)
                except MachineError as exc:
                    exc._fp_executed = executed
                    raise
                executed += 1
                remaining -= 1
        return trace, executed
