"""Statement parser for SVM32 assembly.

Turns token lines into statements: labels, directives, and instructions
with structured operands. Label references are carried symbolically as
:class:`SymRef` and resolved by the assembler's second pass.
"""

from repro.errors import AssemblerError
from repro.asm.lexer import DIRECTIVE, IDENT, INT, PUNCT, REG


class SymRef:
    """A symbol reference plus constant addend, resolved in pass two."""

    __slots__ = ("name", "addend")

    def __init__(self, name, addend=0):
        self.name = name
        self.addend = addend

    def __repr__(self):
        if self.addend:
            return "SymRef(%s%+d)" % (self.name, self.addend)
        return "SymRef(%s)" % self.name


class RegOperand:
    __slots__ = ("reg",)

    def __init__(self, reg):
        self.reg = reg

    def __repr__(self):
        return "RegOperand(%d)" % self.reg


class ImmOperand:
    """An immediate: a plain int or a :class:`SymRef`."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return "ImmOperand(%r)" % (self.value,)


class MemRef:
    """A memory operand ``[base + index*scale + disp]`` pre-resolution."""

    __slots__ = ("base", "index", "scale", "disp")

    def __init__(self, base=None, index=None, scale=1, disp=0):
        self.base = base
        self.index = index
        self.scale = scale
        self.disp = disp  # int or SymRef

    def __repr__(self):
        return "MemRef(base=%r, index=%r, scale=%r, disp=%r)" % (
            self.base, self.index, self.scale, self.disp)


class LabelStmt:
    __slots__ = ("name", "line")

    def __init__(self, name, line):
        self.name = name
        self.line = line


class DirectiveStmt:
    __slots__ = ("name", "args", "line")

    def __init__(self, name, args, line):
        self.name = name
        self.args = args
        self.line = line


class InstrStmt:
    __slots__ = ("mnemonic", "operands", "line")

    def __init__(self, mnemonic, operands, line):
        self.mnemonic = mnemonic
        self.operands = operands
        self.line = line


class _TokenCursor:
    def __init__(self, tokens, line):
        self.tokens = tokens
        self.pos = 0
        self.line = line

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise AssemblerError("unexpected end of line", line=self.line)
        self.pos += 1
        return tok

    def accept_punct(self, char):
        tok = self.peek()
        if tok is not None and tok.kind == PUNCT and tok.value == char:
            self.pos += 1
            return True
        return False

    def at_end(self):
        return self.pos >= len(self.tokens)


def _parse_imm_expr(cur):
    """Parse ``term (('+'|'-') term)*`` into an int or SymRef."""
    name = None
    total = 0
    sign = 1
    if cur.accept_punct("-"):
        sign = -1
    while True:
        tok = cur.next()
        if tok.kind == INT:
            total += sign * tok.value
        elif tok.kind == IDENT:
            if name is not None:
                raise AssemblerError(
                    "at most one symbol per expression", line=cur.line)
            if sign < 0:
                raise AssemblerError(
                    "cannot negate a symbol", line=cur.line)
            name = tok.value
        else:
            raise AssemblerError(
                "expected number or symbol, got %r" % (tok.value,),
                line=cur.line)
        if cur.accept_punct("+"):
            sign = 1
        elif cur.accept_punct("-"):
            sign = -1
        else:
            break
    if name is None:
        return total
    return SymRef(name, total)


def _parse_mem(cur):
    """Parse the inside of ``[...]`` into a :class:`MemRef`."""
    base = None
    index = None
    scale = 1
    disp = 0
    sym = None
    sign = 1
    while True:
        tok = cur.next()
        if tok.kind == REG:
            if cur.accept_punct("*"):
                sc_tok = cur.next()
                if sc_tok.kind != INT or sc_tok.value not in (1, 2, 4):
                    raise AssemblerError(
                        "scale must be 1, 2 or 4", line=cur.line)
                if index is not None:
                    raise AssemblerError(
                        "two index registers in memory operand", line=cur.line)
                index = tok.value
                scale = sc_tok.value
            elif base is None:
                base = tok.value
            elif index is None:
                index = tok.value
                scale = 1
            else:
                raise AssemblerError(
                    "too many registers in memory operand", line=cur.line)
            if sign < 0:
                raise AssemblerError(
                    "cannot subtract a register", line=cur.line)
        elif tok.kind == INT:
            disp += sign * tok.value
        elif tok.kind == IDENT:
            if sym is not None:
                raise AssemblerError(
                    "at most one symbol per memory operand", line=cur.line)
            if sign < 0:
                raise AssemblerError("cannot negate a symbol", line=cur.line)
            sym = tok.value
        else:
            raise AssemblerError(
                "bad memory operand component %r" % (tok.value,),
                line=cur.line)
        if cur.accept_punct("+"):
            sign = 1
        elif cur.accept_punct("-"):
            sign = -1
        elif cur.accept_punct("]"):
            break
        else:
            raise AssemblerError(
                "expected '+', '-' or ']' in memory operand", line=cur.line)
    if index is not None and base is None:
        raise AssemblerError(
            "index register requires a base register", line=cur.line)
    final_disp = SymRef(sym, disp) if sym is not None else disp
    return MemRef(base=base, index=index, scale=scale, disp=final_disp)


def _parse_operand(cur):
    tok = cur.peek()
    if tok is None:
        raise AssemblerError("missing operand", line=cur.line)
    if tok.kind == REG:
        cur.next()
        return RegOperand(tok.value)
    if tok.kind == PUNCT and tok.value == "[":
        cur.next()
        return _parse_mem(cur)
    return ImmOperand(_parse_imm_expr(cur))


def parse_line(tokens, line_no):
    """Parse one token line into a list of statements.

    A line may contain a label, a label plus an instruction/directive, or
    just an instruction/directive.
    """
    statements = []
    cur = _TokenCursor(tokens, line_no)

    # Optional leading label(s).
    while (cur.peek() is not None and cur.peek().kind == IDENT
           and cur.pos + 1 < len(tokens)
           and tokens[cur.pos + 1].kind == PUNCT
           and tokens[cur.pos + 1].value == ":"):
        name_tok = cur.next()
        cur.next()  # colon
        statements.append(LabelStmt(name_tok.value, line_no))

    if cur.at_end():
        return statements

    head = cur.next()
    if head.kind == DIRECTIVE:
        args = []
        while not cur.at_end():
            args.append(_parse_operand(cur))
            if not cur.accept_punct(","):
                break
        if not cur.at_end():
            raise AssemblerError("trailing tokens after directive",
                                 line=line_no)
        statements.append(DirectiveStmt(head.value, args, line_no))
        return statements

    if head.kind != IDENT:
        raise AssemblerError(
            "expected mnemonic, got %r" % (head.value,), line=line_no)

    operands = []
    if not cur.at_end():
        while True:
            operands.append(_parse_operand(cur))
            if not cur.accept_punct(","):
                break
    if not cur.at_end():
        raise AssemblerError("trailing tokens after instruction", line=line_no)
    statements.append(InstrStmt(head.value.lower(), operands, line_no))
    return statements
