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
  run, that pays for marks per block and per distinct address rather
  than per byte: a mark is an inline guarded ``bytes.translate`` of
  ``g`` through the FSM tables of :mod:`repro.machine.depvec` (a
  single-byte op at width 1); marks an earlier mark of the block made
  no-ops are not emitted at all (:func:`_redundant_marks`, whose
  docstring carries the soundness argument); and every register and
  EIP mark of the block is one update of the header ``g[0:36]`` at
  block exit, ``old | READ_FIRST & ~(old >> 1) | WRITTEN`` through
  ``int.from_bytes`` with both masks literals, skipped while the
  header still equals the fixed point the variant last produced. That
  update includes the block-entry EIP read, so :meth:`Block.recover`
  applies the EIP read itself on the fault path.
* Every variant reuses what the block has already proved
  (:func:`_plan_block`): a load of an ``(address, width)`` the block
  stored or loaded, with no store between that may alias it, takes the
  value from a local; a bounds or code-write check the same name
  already passed is dropped; and a flag write computes only the ``fl``
  bits read before the next one (all of them when a fault site or the
  block exit comes first).
* Blocks a break set keeps running are promoted by measured heat
  (:data:`HOT_RUNS`) into that break set's :class:`Region`: one
  function per variant that dispatches on EIP among its member blocks
  (hottest first) with the registers and EFLAGS in locals across
  blocks, and folds the members' header updates into one write at
  exit. The block-at-a-time loop stays as the cold tier for everything
  else.

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
  EFLAGS, EIP, and register/EIP dependency marks to the byte-identical
  state the reference interpreter would have left (memory and EFLAGS
  marks are inline, so those before the fault have already run), then
  re-raises.
* **Conservative refusal** — instructions the translator cannot prove
  equivalent (register operands >= 8 that would alias the header,
  addressing modes outside the five defined ones, undecodable bytes,
  EIPs outside the code region) simply end the block; execution falls
  back to the reference ``TransitionContext.step`` for them.

A :class:`BlockCache` is a context's ``tier`` whenever the context has a
code range and the fast path is on. Per process, ``REPRO_FAST_PATH=0``
selects the reference tier (:class:`repro.machine.transition.ReferenceTier`)
instead, in the main thread and in pool workers alike; per context,
``make_context(fast_path=False)`` / ``make_machine(fast_path=False)`` does.
"""

import struct
import threading
from collections import Counter

from repro.errors import (
    CodeWriteError,
    MachineError,
    SegmentationFault,
)
from repro.isa.encoding import INSTRUCTION_SIZE, decode
from repro.isa.opcodes import Op
from repro.machine.depvec import ON_READ, ON_WRITE, mark
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
#: The register file, ``r0`` .. ``r7``, as one unpack / pack.
_REGS = struct.Struct("<8I")
_REG_NAMES = ", ".join("r%d" % r for r in range(8))

#: Upper bound on instructions per translated block (straight-line runs
#: are usually ended far earlier by a control-flow op).
MAX_BLOCK_INSTRUCTIONS = 128

#: Block heat that earns region membership: a block the cold loop has
#: run this many times under one break set (and variant) joins that
#: break set's region at the next scan, and the cold loop scans after
#: this many block runs per region member (at least one), so a rebuild
#: that recompiles m members waits for m times as much cold work.
HOT_RUNS = 256

#: The budget a region is handed when the run has none: one CPython
#: digit, so its arithmetic stays on small ints. A region that spends it
#: simply returns and is called again.
_NO_LIMIT = (1 << 30) - 1

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
_RI_SHIFTS = frozenset((Op.SHL_RI, Op.SHR_RI, Op.SAR_RI))
_MAYBE_WRITES_FLAGS = frozenset((Op.SHL_RR, Op.SHR_RR, Op.SAR_RR)) \
    | _RI_SHIFTS
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


#: The ``fl`` bits: CF, and all four (CF=1, ZF=2, SF=4, OF=8).
_CF = 1
_ALL_FLAGS = 15

#: The ``fl`` bits each condition of :data:`_COND_SRC` reads.
_COND_READS = {op: bits for ops, bits in (
    ((Op.JZ, Op.JNZ, Op.SETZ, Op.SETNZ), 2),
    ((Op.JL, Op.JGE, Op.SETL, Op.SETGE), 12),
    ((Op.JLE, Op.JG, Op.SETLE, Op.SETG), 14),
    ((Op.JB, Op.JAE, Op.SETB), 1),
    ((Op.JBE, Op.JA, Op.SETA), 3),
    ((Op.JS, Op.JNS), 4),
    ((Op.JO, Op.JNO), 8)) for op in ops}


#: The ZF and SF terms of a flag write whose result is ``_r``.
_ZF_SF = [(2, "(2 if _r == 0 else 0)"), (4, "((_r >> 29) & 4)")]


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


#: Stack-pointer moves of the stack ops (the value of ESP keeps its root).
_STACK_MOVES = {Op.PUSH_R: -4, Op.PUSH_I: -4, Op.CALL: -4, Op.CALL_R: -4,
                Op.POP_R: 4, Op.RET: 4}

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
                 "reg_marks", "prefault_marks", "header", "_reg_offsets",
                 "_uses_flags")

    def __init__(self, instrs, cut_by, reg_marks, prefault_marks, header,
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
        #: ``(rd, wr)``: every register and EIP mark of a full run of the
        #: block as one update of the header ``g[0:36]`` read as a
        #: little-endian int, ``old | rd & ~(old >> 1) | wr``.
        self.header = header
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
            for acc in self.reg_marks[:pc] + (self.prefault_marks[pc],):
                for kind, reg in acc:
                    mark(g, reg * 4, 4, ON_READ if kind == "r" else ON_WRITE)
            # Every instruction reads EIP; all but the faulting one
            # wrote it.
            mark(g, EIP_OFF, 4, ON_READ)
            if pc > 0:
                mark(g, EIP_OFF, 4, ON_WRITE)
        exc._fp_block_index = pc
        return exc


# -- the translator ------------------------------------------------------------

class _Emitter:
    """Accumulates the source of one block variant."""

    def __init__(self, dep, code_reads=False):
        self.dep = dep
        self.code_reads = code_reads
        self.lines = []
        #: The plan of the current instruction (:func:`_plan_block`).
        self.step = _Step()

    def emit(self, line):
        self.lines.append(line)

    def mark(self, line, kind=None):
        if self.dep and kind not in self.step.dropped:
            self.lines.append(line)

    def flags(self, terms, pad="        "):
        """Emit ``fl = ...`` for a flag write from its ``(bits,
        expression)`` terms, keeping those with a live bit; a bit no term
        covers is 0. Nothing when no bit is live."""
        live = self.step.live
        if live:
            kept = [expr for bits, expr in terms if bits & live]
            self.lines.append(pad + "fl = " + (" | ".join(kept) or "0"))

    def mem_mark(self, width, write):
        """Mark the access of ``width`` (1 or 4) bytes at ``g[_o]``."""
        if width == 1:
            line = "g[_o] |= 2" if write else "if not g[_o]: g[_o] = 1"
        elif write:  # guard: some byte below WRITTEN (bit 1 clear)
            line = ("if ~u32(g, _o)[0] & 0x2020202: "
                    "g[_o:_o + 4] = g[_o:_o + 4].translate(_WR)")
        else:
            line = ("if 0 in g[_o:_o + 4]: "
                    "g[_o:_o + 4] = g[_o:_o + 4].translate(_RD)")
        self.mark("        " + line, "mem")


def _ea_value(values, mode, rb, imm):
    """The symbolic ``(root, offset)`` of an effective address."""
    if mode == 0:
        return None, imm & _M
    root, off = values[(rb >> 4) & 0x0F]
    if mode >= 2:
        scale = 1 if mode == 2 else (2 if mode == 3 else 4)
        index_root, index_off = values[rb & 0x0F]
        root = (root, index_root, scale)
        off += index_off * scale
    return root, (off + imm) & _M


def _may_alias(key, other):
    """Whether a store at ``key`` may change bytes of ``other`` (both
    ``((root, offset), width)``): a different root may name any
    address; the same root names addresses exactly the offsets apart
    (mod 2**32), so those bytes overlap only if the offsets do."""
    (root, off), width = key
    (other_root, other_off), other_width = other
    return (root != other_root or (other_off - off) & _M < width
            or (off - other_off) & _M < other_width)


class _Step:
    """The plan of one instruction of a block (see :func:`_plan_block`).

    ``dropped``: marks a tracking variant may omit ("mem",
    "flags_read", "flags_write"); ``elided``: bounds ("segv") and
    code-write ("code") checks an earlier check of the block already
    passed; ``faults``: whether the instruction keeps a fault site;
    ``source``: for a forwarded load, the value read — an int, or the
    local that holds it; ``save``: the local this access must copy its
    value to for a later forwarded load; ``live``: for an unconditional
    flag write, the ``fl`` bits something can observe before the next.
    """

    __slots__ = ("dropped", "elided", "faults", "source", "save", "live")

    def __init__(self):
        self.dropped = set()
        self.elided = set()
        self.faults = False
        self.source = None
        self.save = None
        self.live = _ALL_FLAGS


def _plan_block(instrs):
    """What every variant of a block may leave out: one symbolic walk.

    Each register's value is named ``(root, offset mod 2**32)``: the
    entry value of register k is root ``k``, a constant is root
    ``None``; ``ADD_RI`` / ``SUB_RI``, ``MOV_RR``, ``LEA`` and the
    stack-pointer moves of push / pop / call / ret keep a root; any
    other write makes a fresh one. Equal names are equal values, so two
    accesses with the same ``(address, width)`` name touch the same
    bytes. The walk decides, per instruction (a :class:`_Step`):

    * **Marks.** A memory read mark is dropped when an earlier mark of
      the block hit its ``(address, width)``, a write when an earlier
      write did; an EFLAGS read after any flag mark, a write after an
      unconditional one (shifts by a register count write conditionally
      and license nothing). Sound for any ``g`` at block entry: the FSM
      never returns a byte to NULL nor a written byte below WRITTEN, and
      the mark that makes a dropped one a no-op ran earlier in the same
      straight-line execution — if a fault came first, nothing after it
      runs.
    * **Checks.** A bounds or code-write check of an ``(address,
      width)`` name that an earlier access of the block passed is
      elided: same value, same verdict.
    * **Forwarding.** The block's memory contents are known where it
      stored or loaded them: ``(address, width) -> value name`` (a byte
      is the name's value mod 256). A store forgets every entry it may
      alias (:func:`_may_alias`); a load of a known entry takes its value
      from a constant, a register holding that name, or a local the
      earlier access saved it to.
    * **Flag liveness** (a backward pass): the ``fl`` bits an
      unconditional flag write must compute are those read before the
      next unconditional write; a fault site or the block exit reads
      them all (:meth:`Block.recover` and every block exit flush ``fl``).

    DESIGN.md §7 carries the soundness argument.
    """
    values = {r: (r, 0) for r in range(8)}
    marked, written = set(), set()
    flags_marked = flags_written = False
    passed = set()     # (check kind, address name, width)
    contents = {}      # (address name, width) -> (value name, origin step)
    plan = []
    for __, op, mode, ra, rb, imm in instrs:
        step = _Step()
        dropped = step.dropped
        key = None
        move = _STACK_MOVES.get(op)
        if op in _LOADS or op in _STORES:
            width = 4 if op in (Op.LOAD, Op.STORE) else 1
            key, write = (_ea_value(values, mode, rb, imm), width), \
                op in _STORES
            stored = values[ra] if write else None
        elif move:
            root, off = values[_ESP]
            top = (root, (off + move) & _M)
            # push / call store at the new top, pop / ret load the old.
            key, write = (top if move < 0 else (root, off), 4), move < 0
            stored = (values[ra] if op is Op.PUSH_R
                      else (None, imm & _M) if op is Op.PUSH_I else None)
        if key:
            if key in (written if write else marked):
                dropped.add("mem")
            marked.add(key)
            if write:
                written.add(key)
            checks = ("segv", "code") if write else ("segv",)
            step.elided = {kind for kind in checks
                           if (kind,) + key in passed}
            passed.update((kind,) + key for kind in checks)
            step.faults = len(step.elided) < len(checks)
            if write:
                for other in [k for k in contents if _may_alias(key, k)]:
                    del contents[other]
                if stored is not None:
                    contents[key] = (stored, step)
            elif key in contents:
                name, origin = contents[key]
                step.source = _locate(values, name, origin, len(plan))
        elif op in (Op.IDIV_R, Op.UDIV_R):
            step.faults = True
        if move:
            values[_ESP] = top
        if op in _READS_FLAGS:
            if flags_marked:
                dropped.add("flags_read")
            flags_marked = True
        if op in _WRITES_FLAGS or (op in _RI_SHIFTS and imm & 31):
            if flags_written:
                dropped.add("flags_write")
            flags_marked = flags_written = True
        if op is Op.MOV_RR:
            values[ra] = values[rb]
        elif op is Op.MOV_RI:
            values[ra] = (None, imm & _M)
        elif op is Op.LEA:
            values[ra] = _ea_value(values, mode, rb, imm)
        elif op in (Op.ADD_RI, Op.SUB_RI):
            root, off = values[ra]
            delta = imm if op is Op.ADD_RI else -imm
            values[ra] = (root, (off + delta) & _M)
        elif op is Op.XCHG:
            values[ra], values[rb] = values[rb], values[ra]
        else:
            for kind, reg in _reg_accesses(op, mode, ra, rb)[0]:
                if kind == "w" and not (move and reg == _ESP):
                    values[reg] = (object(), 0)
            if op is Op.POP_R:
                values[ra] = (object(), 0)
        if key and not write and op is not Op.RET and key not in contents:
            contents[key] = (values[ra], step)
        plan.append(step)
    live = _ALL_FLAGS
    for step, instr in zip(reversed(plan), reversed(instrs)):
        op, imm = instr[1], instr[5]
        if step.faults:
            live = _ALL_FLAGS
        elif op in _WRITES_FLAGS or (op in _RI_SHIFTS and imm & 31):
            step.live = live
            live = (_CF if op in (Op.ADC_RR, Op.SBB_RR)
                    else live & _CF if op in (Op.INC_R, Op.DEC_R) else 0)
        elif op in _MAYBE_WRITES_FLAGS and op not in _RI_SHIFTS:
            live = _ALL_FLAGS  # a zero count leaves every bit as it was
        elif op in _READS_FLAGS:
            live |= _COND_READS[op]
    return plan


def _locate(values, name, origin, index):
    """Where a forwarded load finds the value named ``name``: the
    constant, a register that holds it now, or the local ``origin``
    saves it to."""
    root, off = name
    if root is None:
        return off
    for reg in range(8):
        if values[reg] == name:
            return "r%d" % reg
    if origin.save is None:
        origin.save = "_s%d" % index
    return origin.save


def _redundant_marks(instrs):
    """Per instruction, the dependency marks a tracking variant may drop
    (the ``dropped`` sets of :func:`_plan_block`)."""
    return [step.dropped for step in _plan_block(instrs)]


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
            "_RD": ON_READ, "_WR": ON_WRITE, "_fb": int.from_bytes,
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
        w.mark("        if not g[%d]: g[%d] = 1" % (EFLAGS_OFF, EFLAGS_OFF),
               "flags_read")

    def _emit_flags_write(self, w):
        w.mark("        g[%d] |= 2" % EFLAGS_OFF, "flags_write")

    def _emit_access(self, w, ea, width, store):
        """Emit the checks the plan keeps for an access of ``width``
        bytes at the address expression ``ea``, then ``_o``, its offset
        in ``buf``."""
        elided = w.step.elided
        segv = "segv" not in elided
        code = store and "code" not in elided
        if not ea.isidentifier():
            if segv or code:
                w.emit("        _ea = %s" % ea)
                ea = "_ea"
            else:
                ea = "(%s)" % ea
        if segv:
            w.emit("        if %s < %d or %s > %d: _sv(%s, %d)"
                   % (ea, RESERVED_LOW, ea, self.mem_size - width, ea,
                      width))
        if code:
            w.emit("        if %d <= %s < %d: _cw(%s, %d)"
                   % (self.code_lo, ea, self.code_hi, ea, width))
        w.emit("        _o = %s + %d" % (ea, MEM_OFF))

    def _emit_instr(self, w, index, instr):
        addr, op, mode, ra, rb, imm = instr
        A = "r%d" % ra
        B = "r%d" % rb
        step = w.step
        live = step.live
        if w.code_reads:
            code = "g[%d:%d]" % (MEM_OFF + addr, MEM_OFF + addr + 8)
            w.mark("        if 0 in %s: %s = %s.translate(_RD)"
                   % (code, code, code))
        if step.faults:
            w.emit("        _pc = %d" % index)

        if op is Op.NOP:
            pass
        elif op is Op.MOV_RR:
            w.emit("        %s = %s" % (A, B))
        elif op is Op.MOV_RI:
            w.emit("        %s = %d" % (A, imm & _M))
        elif op in _LOADS:
            # A forwarded load's mark is always dropped: its address was
            # marked by the access that left the value it reads.
            source = step.source
            if op is Op.LOAD:
                if source is None:
                    self._emit_access(w, self._ea_src(mode, rb, imm), 4,
                                      store=False)
                    w.mem_mark(4, write=False)
                    w.emit("        %s, = u32(buf, _o)" % A)
                elif source != A:
                    w.emit("        %s = %s" % (A, source))
            else:
                if source is None:
                    self._emit_access(w, self._ea_src(mode, rb, imm), 1,
                                      store=False)
                    w.mem_mark(1, write=False)
                    byte = "buf[_o]"
                elif isinstance(source, int):
                    byte = source & 255
                    if op is Op.LOAD8S and byte & 128:
                        byte |= 4294967040
                else:
                    byte = "%s & 255" % source
                if op is Op.LOAD8U or isinstance(byte, int):
                    w.emit("        %s = %s" % (A, byte))
                else:  # LOAD8S
                    w.emit("        _v = %s" % byte)
                    w.emit("        %s = _v | 4294967040 if _v & 128 else _v"
                           % A)
            if step.save:
                w.emit("        %s = %s" % (step.save, A))
        elif op in _STORES:
            width = 4 if op is Op.STORE else 1
            self._emit_access(w, self._ea_src(mode, rb, imm), width,
                              store=True)
            if op is Op.STORE:
                w.emit("        p32(buf, _o, %s)" % A)
            else:
                w.emit("        buf[_o] = %s & 255" % A)
            w.mem_mark(width, write=True)
            if step.save:
                w.emit("        %s = %s" % (step.save, A))
        elif op is Op.LEA:
            w.emit("        %s = %s" % (A, self._ea_src(mode, rb, imm)))
        elif op in (Op.PUSH_R, Op.PUSH_I):
            value = A if op is Op.PUSH_R else repr(imm & _M)
            if op is Op.PUSH_R and ra == _ESP:
                w.emit("        _v = r4")
                value = "_v"
            w.emit("        r4 = (r4 - 4) & %d" % _M)
            self._emit_access(w, "r4", 4, store=True)
            w.emit("        p32(buf, _o, %s)" % value)
            w.mem_mark(4, write=True)
            if step.save:
                w.emit("        %s = %s" % (step.save, value))
        elif op is Op.POP_R:
            if step.source is not None:
                if ra != _ESP and step.source != A:
                    w.emit("        %s = %s" % (A, step.source))
                w.emit("        r4 = %s" % (step.source if ra == _ESP else
                                            "(r4 + 4) & %d" % _M))
            else:
                self._emit_access(w, "r4", 4, store=False)
                w.mem_mark(4, write=False)
                w.emit("        _v, = u32(buf, _o)")
                w.emit("        r4 = (r4 + 4) & %d" % _M)
                w.emit("        %s = _v" % A)
            if step.save:
                w.emit("        %s = %s" % (step.save, A))
        elif op is Op.XCHG:
            if ra != rb:
                w.emit("        %s, %s = %s, %s" % (A, B, B, A))
        elif op in (Op.ADD_RR, Op.ADD_RI):
            b = B if op is Op.ADD_RR else repr(imm & _M)
            if live & _CF:
                w.emit("        _t = %s + %s" % (A, b))
                w.emit("        _r = _t & %d" % _M)
            else:
                w.emit("        _r = (%s + %s) & %d" % (A, b, _M))
            w.flags([(1, "(1 if _t > %d else 0)" % _M)] + _ZF_SF + [
                (8, "(8 if ~(%s ^ %s) & (%s ^ _r) & 2147483648 else 0)"
                 % (A, b, A))])
            self._emit_flags_write(w)
            w.emit("        %s = _r" % A)
        elif op in (Op.SUB_RR, Op.SUB_RI, Op.CMP_RR, Op.CMP_RI):
            b = B if op in (Op.SUB_RR, Op.CMP_RR) else repr(imm & _M)
            zf_sf = _ZF_SF
            if op in (Op.SUB_RR, Op.SUB_RI) or live & 12:
                w.emit("        _r = (%s - %s) & %d" % (A, b, _M))
            else:  # a compare whose SF and OF nobody reads
                zf_sf = [(2, "(2 if %s == %s else 0)" % (A, b))]
            w.flags([(1, "(1 if %s > %s else 0)" % (b, A))] + zf_sf + [
                (8, "(8 if (%s ^ %s) & (%s ^ _r) & 2147483648 else 0)"
                 % (A, b, A))])
            self._emit_flags_write(w)
            if op in (Op.SUB_RR, Op.SUB_RI):
                w.emit("        %s = _r" % A)
        elif op is Op.ADC_RR:
            self._emit_flags_read(w)
            w.emit("        _ci = fl & 1")
            w.emit("        _t = %s + %s + _ci" % (A, B))
            w.emit("        _r = _t & %d" % _M)
            if live & 8:
                w.emit("        _ss = (%s - 4294967296 if %s & 2147483648"
                       " else %s) + (%s - 4294967296 if %s & 2147483648"
                       " else %s) + _ci" % (A, A, A, B, B, B))
            w.flags([(1, "(1 if _t > %d else 0)" % _M)] + _ZF_SF + [
                (8, "(0 if -2147483648 <= _ss < 2147483648 else 8)")])
            self._emit_flags_write(w)
            w.emit("        %s = _r" % A)
        elif op is Op.SBB_RR:
            self._emit_flags_read(w)
            w.emit("        _ci = fl & 1")
            w.emit("        _r = (%s - %s - _ci) & %d" % (A, B, _M))
            if live & 8:
                w.emit("        _sd = (%s - 4294967296 if %s & 2147483648"
                       " else %s) - (%s - 4294967296 if %s & 2147483648"
                       " else %s) - _ci" % (A, A, A, B, B, B))
            w.flags([(1, "(1 if %s < %s + _ci else 0)" % (A, B))] + _ZF_SF + [
                (8, "(0 if -2147483648 <= _sd < 2147483648 else 8)")])
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
            w.flags([(9, "(0 if -2147483648 <= _f < 2147483648 else 9)")]
                    + _ZF_SF)
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
            w.flags([(1, "(fl & 1)")] + _ZF_SF + [
                (8, "(8 if %s == %d else 0)" % (A, edge))])
            self._emit_flags_write(w)
            w.emit("        %s = _r" % A)
        elif op is Op.NEG_R:
            w.emit("        _r = (-%s) & %d" % (A, _M))
            w.flags([(1, "(1 if %s else 0)" % A)] + _ZF_SF + [
                (8, "(8 if %s == 2147483648 else 0)" % A)])
            self._emit_flags_write(w)
            w.emit("        %s = _r" % A)
        elif op is Op.NOT_R:
            w.emit("        %s = %s ^ %d" % (A, A, _M))
        elif op in (Op.AND_RR, Op.AND_RI, Op.OR_RR, Op.OR_RI, Op.XOR_RR,
                    Op.XOR_RI, Op.TEST_RR, Op.TEST_RI):
            sym = {"AND": "&", "OR": "|", "XOR": "^", "TEST": "&"}[
                op.name.split("_")[0]]
            b = B if op.name.endswith("RR") else repr(imm & _M)
            if op not in (Op.TEST_RR, Op.TEST_RI) or live & 6:
                w.emit("        _r = %s %s %s" % (A, sym, b))
            w.flags(_ZF_SF)
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
            self._emit_access(w, "r4", 4, store=True)
            w.emit("        p32(buf, _o, %d)" % ((addr + 8) & _M))
            w.mem_mark(4, write=True)
            w.emit("        _nx = %s"
                   % (repr(imm & _M) if op is Op.CALL else "_tg"))
        elif op is Op.RET:
            if step.source is not None:
                w.emit("        _nx = %s" % step.source)
            else:
                self._emit_access(w, "r4", 4, store=False)
                w.mem_mark(4, write=False)
                w.emit("        _nx, = u32(buf, _o)")
            w.emit("        r4 = (r4 + 4) & %d" % _M)
        else:
            raise MachineError("translator cannot emit opcode %s" % (op,))

    def _emit_shift(self, w, kind, A, count, indent):
        pad = " " * indent
        if kind == "SHL":
            w.emit(pad + "_r = (%s << %s) & %d" % (A, count, _M))
            cf = "((%s >> (32 - %s)) & 1)" % (A, count)
        elif kind == "SHR":
            w.emit(pad + "_r = %s >> %s" % (A, count))
            cf = "((%s >> (%s - 1)) & 1)" % (A, count)
        else:  # SAR
            w.emit(pad + "_s = %s - 4294967296 if %s & 2147483648 else %s"
                   % (A, A, A))
            w.emit(pad + "_r = (_s >> %s) & %d" % (count, _M))
            cf = "((_s >> (%s - 1)) & 1)" % count
        w.flags([(1, cf)] + _ZF_SF, pad)

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
        # The FSM net effect of the block on a register is its first
        # access kind and whether it is ever written; EIP is read first
        # and written. Per byte, ``old | RD & ~(old >> 1) | WR`` applies
        # ON_READ where RD has bit 0 (a set bit 1 blocks NULL -> READ),
        # then ON_WRITE (OR 2) where WR has bit 1.
        first_kind = {}
        for acc in accesses:
            for kind, reg in acc:
                first_kind.setdefault(reg, kind)
        eip = [EIP_OFF // 4]
        rd = sum(0x01010101 << 32 * reg for reg in eip + [
            reg for reg in used_regs if first_kind[reg] == "r"])
        wr = sum(0x02020202 << 32 * reg for reg in eip + sorted(
            {reg for acc in accesses for kind, reg in acc if kind == "w"}))
        return Block(
            instrs, cut_by,
            reg_marks=tuple(accesses),
            prefault_marks=tuple(acc[:cut]
                                 for acc, cut in zip(accesses, cuts)),
            header=(rd, wr),
            reg_offsets=tuple(r * 4 for r in used_regs),
            uses_flags=any(instr[1] in _TOUCHES_FLAGS for instr in instrs),
        )

    def _emit_body(self, block, variant, pc_base):
        """The straight-line body of one variant of ``block``: lines
        indented for a ``try`` inside a function, ending with the next
        EIP in ``_nx``. An instruction with a fault site first sets
        ``_pc`` to ``pc_base`` plus its index in the block."""
        body = _Emitter(variant != "base", code_reads=variant == "dep_code")
        plan = _plan_block(block.instrs)
        for i, instr in enumerate(block.instrs):
            body.step = plan[i]
            self._emit_instr(body, pc_base + i, instr)
        if block.instrs[-1][1] not in _TERMINATORS:
            body.emit("        _nx = %d" % block.end)
        return body.lines

    def emit(self, block, variant):
        """Generate, compile and return one variant of ``block``."""
        dep = variant != "base"
        instrs = block.instrs
        accesses = block.reg_marks
        flags_used = block._uses_flags
        used_regs = [off // 4 for off in block._reg_offsets]
        written_regs = sorted({r for acc in accesses
                               for kind, r in acc if kind == "w"})

        w = _Emitter(dep)
        w.emit("def _block(%s):" % ("buf, g" if dep else "buf"))
        for r in used_regs:
            w.emit("    r%d, = u32(buf, %d)" % (r, r * 4))
        if flags_used:
            w.emit("    fl = buf[%d]" % EFLAGS_OFF)
        body = self._emit_body(block, variant, 0)
        if any(instr[1] in _FAULTABLE for instr in instrs):
            w.emit("    _pc = 0")
            w.emit("    try:")
            w.lines.extend(body)
            w.emit("    except MachineError as _e:")
            regs_tuple = "(%s)" % "".join("r%d, " % r for r in used_regs)
            w.emit("        _rec(_e, buf, %s, _pc, %s, %s)"
                   % ("g" if dep else "None", regs_tuple,
                      "fl" if flags_used else "0"))
            w.emit("        raise")
        else:
            # No fault sites: inline the body without the try frame.
            w.lines.extend(line[4:] for line in body)
        for r in written_regs:
            w.emit("    p32(buf, %d, r%d)" % (r * 4, r))
        if flags_used:
            w.emit("    buf[%d] = fl" % EFLAGS_OFF)
        w.emit("    p32(buf, %d, _nx)" % EIP_OFF)
        if dep:
            # One update of the register/EIP header (``Block.header``).
            # The update is idempotent, so a header equal to the last one
            # it produced (``_fp[0]``, whichever thread produced it) is
            # already its fixed point.
            rd, wr = block.header
            end = EIP_OFF + 4
            w.emit("    _h = g[:%d]" % end)
            w.emit("    if _h != _fp[0]:")
            w.emit("        _v = _fb(_h, 'little')")
            w.emit("        _fp[0] = g[:%d] = (_v | 0x%x & ~(_v >> 1) | 0x%x)"
                   ".to_bytes(%d, 'little')" % (end, rd, wr, end))
        w.emit("    return _nx")

        namespace = dict(self.namespace)
        namespace["_rec"] = block.recover
        namespace["_fp"] = [None]  # the header it last produced
        exec(compile("\n".join(w.lines) + "\n",
                     "<block 0x%x+%d/%s>" % (block.entry, block.n, variant),
                     "exec"), namespace)
        return namespace["_block"]

    def emit_region(self, order, variant, break_set):
        """Generate and compile one variant of a :class:`Region` whose
        members are the blocks ``order`` (dispatch order, hottest first;
        none ends in ``HLT``), all valid under ``break_set``.

        The function ``_region(buf, g, _nx, _rem)`` holds the registers
        and EFLAGS in locals and loops: dispatch on ``_nx``; leave when
        it is no member or the member is longer than ``_rem``; else run
        the member's body (the same :meth:`_emit_instr` code as its
        block variant), fold its header marks on its first visit (see
        :class:`Region`), and leave if the machine has arrived at a
        break IP or a static successor outside the region. On the way
        out it flushes the locals, EIP and the folded header and
        returns ``(eip, instructions run)``.
        """
        dep = variant != "base"
        region = Region(order)
        w = _Emitter(dep)
        w.emit("def _region(buf, g, _nx, _rem):")
        w.emit("    _in = _rem")
        w.emit("    %s = u8(buf, 0)" % _REG_NAMES)
        w.emit("    fl = buf[%d]" % EFLAGS_OFF)
        w.emit("    _pc = 0")
        if dep:
            w.emit("    _rd = _wr = %s = 0" % " = ".join(
                "_v%d" % k for k in range(len(order))))
        w.emit("    try:")
        w.emit("        while True:")
        sites = region.sites
        for k, block in enumerate(order):
            w.emit("            %s _nx == %d:" % ("elif" if k else "if",
                                                 block.entry))
            w.emit("                if _rem < %d: break" % block.n)
            w.lines.extend("        " + line for line in
                           self._emit_body(block, variant, len(sites)))
            sites.extend((block, i) for i in range(block.n))
            w.emit("                _rem -= %d" % block.n)
            if dep:
                rd, wr = block.header
                w.emit("                if not _v%d:" % k)
                w.emit("                    _v%d = 1" % k)
                w.emit("                    _rd |= 0x%x & ~(_wr >> 1)" % rd)
                w.emit("                    _wr |= 0x%x" % wr)
            targets = _static_successors(block)
            if targets is None:
                if break_set:
                    w.emit("                if _nx in _brk: break")
            else:
                leave = [t for t in targets
                         if t in break_set or t not in region.members]
                if len(leave) == len(targets):
                    w.emit("                break")
                elif leave:
                    w.emit("                if _nx == %d: break" % leave[0])
        w.emit("            else:")
        w.emit("                break")
        w.emit("    except MachineError as _e:")
        w.emit("        _rec(_e, buf, g, _pc, (%s), fl, %s, _in - _rem)"
               % (_REG_NAMES, "_rd, _wr" if dep else "0, 0"))
        w.emit("        raise")
        w.emit("    p8(buf, 0, %s)" % _REG_NAMES)
        w.emit("    buf[%d] = fl" % EFLAGS_OFF)
        w.emit("    p32(buf, %d, _nx)" % EIP_OFF)
        if dep:
            w.emit("    if _wr: _ah(g, _rd, _wr)")
        w.emit("    return _nx, _in - _rem")

        namespace = dict(self.namespace)
        namespace.update(u8=_REGS.unpack_from, p8=_REGS.pack_into,
                         _ah=apply_header, _rec=region.recover,
                         _brk=break_set)
        exec(compile("\n".join(w.lines) + "\n",
                     "<region %s+%d/%s>" % (
                         ",".join("%x" % ip for ip in sorted(break_set)),
                         len(order), variant),
                     "exec"), namespace)
        region.run = namespace["_region"]
        return region


def apply_header(g, rd, wr):
    """Apply one header update ``(rd, wr)`` (see :attr:`Block.header`)
    to the register/EIP bytes ``g[0:36]``."""
    end = EIP_OFF + 4
    v = int.from_bytes(g[:end], "little")
    g[:end] = (v | rd & ~(v >> 1) | wr).to_bytes(end, "little")


def _static_successors(block):
    """The EIPs ``block`` can end at, or ``None`` when its last
    instruction jumps to a register or a return address."""
    addr, op, __, __, __, imm = block.instrs[-1]
    if op not in _TERMINATORS:
        return (block.end,)
    if op in (Op.JMP, Op.CALL):
        return (imm & _M,)
    if op in _JCC:
        return tuple({imm & _M, addr + INSTRUCTION_SIZE})
    return None


class Region:
    """The blocks a break set keeps running, compiled into one function
    per variant (:meth:`BlockTranslator.emit_region`).

    Its members are pooled blocks valid under the break set, none ending
    in ``HLT``; entering at a member, ``run(buf, g, eip, budget)`` runs
    members back to back with the registers and EFLAGS in locals and
    returns ``(eip, instructions)`` when the next EIP is a break IP, no
    member, or a member longer than the budget left. Stop reasons stay
    the caller's.

    **Header fold.** Every member run applies ``old | rd & ~(old >> 1) |
    wr`` to the header (its :attr:`Block.header`). Two runs, ``a`` then
    ``b``, compose to one update with ``rd = rd_a | rd_b & ~(wr_a >>
    1)``, ``wr = wr_a | wr_b`` (per byte: bit 1 after ``a`` is ``old``'s
    or ``wr_a``'s, so ``b``'s read lands only where neither is set), and
    an update already folded in adds nothing when folded again. So the
    region folds each member once, on its first completed run, and
    writes the header once, at exit — byte-equal to the cold loop's
    update per block.

    A fault flushes the locals and the folded header, then hands the
    faulting block's own :meth:`Block.recover` its register values and
    index; ``_fp_block_index`` counts the members run before it too.
    """

    __slots__ = ("order", "members", "sites", "run")

    def __init__(self, order):
        self.order = order
        self.members = frozenset(block.entry for block in order)
        #: Instruction index in the region -> ``(block, index in block)``
        #: (filled by :meth:`BlockTranslator.emit_region`).
        self.sites = []
        self.run = None

    def recover(self, exc, buf, g, pc, regs, fl, rd, wr, done):
        _REGS.pack_into(buf, 0, *regs)
        buf[EFLAGS_OFF] = fl
        if wr:
            apply_header(g, rd, wr)
        block, index = self.sites[pc]
        block.recover(exc, buf, g, index,
                      tuple(regs[off // 4] for off in block._reg_offsets),
                      fl)
        exc._fp_block_index = done + index
        return exc


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
        self._regions = {}  # (break set, variant) -> Region
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

    def region(self, break_set, variant, hot):
        """The region of ``break_set`` / ``variant`` with every block of
        ``hot`` (hottest first) a member: the pooled one if it has them
        all, else one compiled now with the pooled region's members
        first, then the missing ones."""
        key = (break_set, variant)
        with self._lock:
            region = self._regions.get(key)
            order = region.order if region is not None else ()
            members = region.members if region is not None else ()
            missing = tuple(block for block in hot
                            if block.entry not in members)
            if missing:
                region = self._regions[key] = self.translator.emit_region(
                    order + missing, variant, break_set)
            return region

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

class _Heat:
    """What one context's cold loop has seen under one break set and
    variant: the blocks it ran since its last scan (``trail``), their
    running totals, and the region it promoted them into. A block
    ending in ``HLT`` ends the run before it is recorded, so no region
    ever has one."""

    __slots__ = ("trail", "counts", "due", "region")

    def __init__(self):
        self.trail = []
        self.counts = Counter()
        self.due = HOT_RUNS  # trail length that triggers the next scan
        self.region = None


class BlockCache:
    """One context's view of a :class:`TranslationStore`, plus the block
    run loops.

    The run loops want an O(1) ``entry EIP -> block`` dict for the break
    set they run under, so each break set a context meets gets one
    (engines reuse a small number: one per recognized phase); a miss
    there asks the store, which translates only what no context of the
    image has translated before. ``False`` entries memoize in-code EIPs
    the translator refused.

    :meth:`run` has two tiers. The cold tier runs one block at a time
    and records each block it runs in a :class:`_Heat`; blocks that
    reach :data:`HOT_RUNS` runs are promoted into the break set's
    :class:`Region` (the store compiles it once per break set and
    variant, whichever context asks first), which runs whenever the
    machine stands on one of its members. Heat alone decides: a loop
    that runs is compiled, straight-line code run a few times never is.
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
        self._heat = {}  # (break set, variant) -> _Heat

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

    def _promote(self, heat, break_set, variant):
        """Scan the trail: blocks that have grown hot join the region.
        Returns the (possibly new) region, or ``None``."""
        counts = heat.counts
        counts.update(heat.trail)
        heat.trail.clear()
        region = heat.region
        members = region.members if region is not None else ()
        hot = [block for block, runs in counts.most_common()
               if runs >= HOT_RUNS and block.entry not in members]
        if hot:
            region = heat.region = self.store.region(break_set, variant,
                                                     hot)
        heat.due = HOT_RUNS * max(1, len(region.order) if region else 0)
        return region

    # -- run loops -----------------------------------------------------------

    def run(self, buf, g, max_instructions, break_ips):
        """Run until halt, breakpoint arrival, or budget exhaustion.

        Mirrors :meth:`repro.machine.transition.ReferenceTier.run` exactly
        (including its stop-reason priorities and its behavior of
        executing at least one instruction when starting *on* a break
        IP). Returns ``(executed, reason)``. On a fault the propagating
        exception carries ``_fp_executed``, the count of instructions
        retired before it.
        """
        context = self.context
        break_set, blocks = self.blocks_for(break_ips)
        code_reads = context.track_code_reads
        variant = ("base" if g is None else "dep_code" if code_reads
                   else "dep")
        heat = self._heat.get((break_set, variant))
        if heat is None:
            heat = self._heat[break_set, variant] = _Heat()
        trail = heat.trail
        region = heat.region
        members = region.members if region is not None else ()
        lookup = self.store.lookup
        code_lo, code_hi = context.code_lo, context.code_hi
        step = context.step
        remaining = max_instructions
        executed = 0
        eip, = _u32(buf, EIP_OFF)

        while True:
            if eip in members:
                try:
                    eip, done = region.run(
                        buf, g, eip,
                        _NO_LIMIT if remaining is None else remaining)
                except MachineError as exc:
                    exc._fp_executed = executed + exc._fp_block_index
                    raise
                if done:
                    executed += done
                    if break_set and eip in break_set:
                        return executed, STOP_BREAKPOINT
                    if remaining is not None:
                        remaining -= done
                        if remaining <= 0:
                            return executed, STOP_LIMIT
                # Not a member, or the member is longer than the budget.
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
                    trail.append(block)
                    if len(trail) >= heat.due:
                        region = self._promote(heat, break_set, variant)
                        members = (region.members if region is not None
                                   else ())
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
        """Fast-path twin of
        :meth:`repro.machine.transition.ReferenceTier.ip_trace`.

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
