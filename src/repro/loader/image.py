"""Program images and their initial machine states.

A :class:`Program` is the output of the assembler (and therefore of the
Mini-C compiler): immutable code bytes, initialized data bytes, a symbol
table, and an entry point. Its job is to materialize the initial point in
state space — the paper's starting state vector with all input data loaded
up front, after which execution is fully deterministic.
"""

from repro.errors import LoaderError
from repro.isa.registers import Reg
from repro.machine.blockcache import TranslationStore
from repro.machine.executor import Machine
from repro.machine.layout import RESERVED_LOW, StateLayout
from repro.machine.state import StateVector
from repro.machine.transition import TransitionContext

DEFAULT_CODE_BASE = 0x40
DEFAULT_STACK_SIZE = 4096


def _align(value, alignment):
    return (value + alignment - 1) // alignment * alignment


class ProgramHints:
    """Structural knowledge a compiler can pass to the recognizer.

    Addresses are absolute code addresses. ``loop_headers`` point at
    loop-condition checks (the IPs a parallelizing compiler would try to
    prove independent); ``function_entries`` at function prologues (the
    IPs behind speculative memoization of calls).
    """

    __slots__ = ("loop_headers", "function_entries")

    def __init__(self, loop_headers=(), function_entries=()):
        self.loop_headers = tuple(loop_headers)
        self.function_entries = tuple(function_entries)

    def all_addresses(self):
        return set(self.loop_headers) | set(self.function_entries)

    def __bool__(self):
        return bool(self.loop_headers or self.function_entries)

    def __repr__(self):
        return "ProgramHints(loops=%d, functions=%d)" % (
            len(self.loop_headers), len(self.function_entries))


class Program:
    """An executable image: code, data, symbols, and entry point."""

    def __init__(self, name, code, data, symbols, entry,
                 code_base=DEFAULT_CODE_BASE, stack_size=DEFAULT_STACK_SIZE,
                 mem_size=None, source=None, hints=None):
        if code_base < RESERVED_LOW:
            raise LoaderError("code_base 0x%x below reserved region" % code_base)
        if code_base % 8:
            raise LoaderError("code_base must be 8-byte aligned")
        self.name = name
        self.code = bytes(code)
        self.data = bytes(data)
        self.symbols = dict(symbols)
        self.entry = int(entry)
        self.code_base = int(code_base)
        self.data_base = _align(self.code_base + len(self.code), 16)
        self.source = source
        self._image_hash = None  # computed lazily by image_hash()
        self._translations = None  # built lazily by translations
        #: Optional compiler hints (:class:`ProgramHints`): structural
        #: knowledge — loop headers, function entries — that a compiler
        #: can hand the recognizer as priors (the paper's §2.1 "import
        #: the sophisticated static analyses of traditional parallelizing
        #: compilers in the form of probability priors").
        self.hints = hints

        min_size = _align(self.data_base + len(self.data) + stack_size, 16)
        if mem_size is None:
            mem_size = min_size
        elif mem_size < min_size:
            raise LoaderError(
                "mem_size %d too small; need at least %d" % (mem_size, min_size))
        self.layout = StateLayout(_align(mem_size, 4))

        end = self.code_base + len(self.code)
        if not self.code_base <= self.entry < end:
            raise LoaderError(
                "entry 0x%x outside code [0x%x, 0x%x)"
                % (self.entry, self.code_base, end))

    # -- derived properties ---------------------------------------------------

    @property
    def code_range(self):
        """``(lo, hi)`` program addresses of the write-protected code."""
        return (self.code_base, self.code_base + len(self.code))

    @property
    def unique_ip_count(self):
        """Number of static instruction addresses (Table 1's 'unique IPs')."""
        return len(self.code) // 8

    @property
    def source_line_count(self):
        """Non-blank source line count (Table 1's 'lines of code')."""
        if not self.source:
            return 0
        return sum(1 for line in self.source.splitlines() if line.strip())

    def symbol(self, name):
        try:
            return self.symbols[name]
        except KeyError:
            raise LoaderError("undefined symbol %r in %s" % (name, self.name))

    def image_hash(self):
        """Stable hex identity of the executable image.

        Covers exactly what determines the transition function and the
        initial state: code and data bytes, entry point, load address,
        and state-vector size. Names, symbols, source text, and hints
        are excluded — two images that differ only cosmetically share a
        trajectory-cache namespace, while a single flipped instruction
        byte lands in a different one (``repro serve`` keys per-client
        cache namespaces on this digest so distinct programs can never
        cross-pollinate).
        """
        if self._image_hash is None:
            import hashlib
            digest = hashlib.sha256()
            for part in (b"repro-image-v1",
                         len(self.code).to_bytes(8, "little"), self.code,
                         len(self.data).to_bytes(8, "little"), self.data,
                         self.entry.to_bytes(8, "little"),
                         self.code_base.to_bytes(8, "little"),
                         self.layout.mem_size.to_bytes(8, "little")):
                digest.update(part)
            self._image_hash = digest.hexdigest()
        return self._image_hash

    @property
    def translations(self):
        """The image's translated basic blocks, shared by every context
        and machine made from this program (never serialized, no part of
        the image's identity: it holds only what ``code`` implies)."""
        if self._translations is None:
            lo, hi = self.code_range
            self._translations = TranslationStore(self.layout.mem_size,
                                                  lo, hi, code=self.code)
        return self._translations

    # -- materialization --------------------------------------------------------

    def initial_state(self):
        """Build the initial state vector: image loaded, ESP at stack top."""
        state = StateVector(self.layout)
        state.write_bytes(self.code_base, self.code)
        if self.data:
            state.write_bytes(self.data_base, self.data)
        state.eip = self.entry
        state.set_reg(Reg.ESP, self.layout.mem_size)
        return state

    def make_context(self, track_code_reads=False, fast_path=None):
        return TransitionContext(self.layout, code_range=self.code_range,
                                 track_code_reads=track_code_reads,
                                 fast_path=fast_path,
                                 translations=self.translations)

    def make_machine(self, track_code_reads=False, fast_path=None):
        """Fresh machine at the program's initial state."""
        return Machine(self.initial_state(),
                       self.make_context(track_code_reads=track_code_reads,
                                         fast_path=fast_path))

    # -- persistence -----------------------------------------------------------

    def to_dict(self):
        """JSON-serializable form (code/data as base64)."""
        import base64
        hints = None
        if self.hints:
            hints = {"loop_headers": list(self.hints.loop_headers),
                     "function_entries": list(self.hints.function_entries)}
        return {
            "format": "repro-program",
            "version": 1,
            "name": self.name,
            "code": base64.b64encode(self.code).decode("ascii"),
            "data": base64.b64encode(self.data).decode("ascii"),
            "symbols": dict(self.symbols),
            "entry": self.entry,
            "code_base": self.code_base,
            "mem_size": self.layout.mem_size,
            "source": self.source,
            "hints": hints,
        }

    @classmethod
    def from_dict(cls, payload):
        import base64
        if payload.get("format") != "repro-program":
            raise LoaderError("not a serialized repro program")
        if payload.get("version") != 1:
            raise LoaderError("unsupported program format version %r"
                              % (payload.get("version"),))
        hints = None
        if payload.get("hints"):
            hints = ProgramHints(
                loop_headers=payload["hints"].get("loop_headers", ()),
                function_entries=payload["hints"].get("function_entries",
                                                      ()))
        return cls(payload["name"],
                   base64.b64decode(payload["code"]),
                   base64.b64decode(payload["data"]),
                   payload["symbols"],
                   payload["entry"],
                   code_base=payload["code_base"],
                   mem_size=payload["mem_size"],
                   source=payload.get("source"),
                   hints=hints)

    def save(self, path):
        """Write the program image as JSON to ``path``."""
        import json
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle)

    @classmethod
    def load(cls, path):
        import json
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def __repr__(self):
        return ("Program(%r, code=%dB @0x%x, data=%dB @0x%x, entry=0x%x, "
                "mem=%dB)" % (self.name, len(self.code), self.code_base,
                              len(self.data), self.data_base, self.entry,
                              self.layout.mem_size))
