"""The byte-granularity dependency vector and its finite state machine.

This is the paper's ``g`` vector (§4.1): one status byte per state-vector
byte, updated on every read and write performed by the transition
function. The four statuses and their transitions:

=====================  =====================================================
``DEP_NULL`` (0)       never touched
``DEP_READ`` (1)       read before any write — a true input dependency
``DEP_WRITTEN`` (2)    written without a prior read — a pure output
``DEP_WAR`` (3)        written after read — both input and output
=====================  =====================================================

FSM: a read promotes NULL -> READ and leaves everything else alone; a
write promotes NULL -> WRITTEN and READ -> WAR and leaves WRITTEN/WAR
alone. Consequently:

* bytes with status READ or WAR are exactly the bytes a speculative
  execution *depends on* (its cache-entry start state), and
* bytes with status WRITTEN or WAR are exactly the bytes it *changes*
  (its cache-entry end state).
"""

DEP_NULL = 0
DEP_READ = 1
DEP_WRITTEN = 2
DEP_WAR = 3


class DepVector:
    """Dependency status for every byte of a state vector."""

    __slots__ = ("buf",)

    def __init__(self, size_or_buf):
        if isinstance(size_or_buf, int):
            self.buf = bytearray(size_or_buf)
        else:
            self.buf = bytearray(size_or_buf)

    def __len__(self):
        return len(self.buf)

    def reset(self):
        """Return every byte to ``DEP_NULL`` (start of a speculation)."""
        # In place: translated blocks hold this bytearray as ``g``.
        self.buf[:] = bytes(len(self.buf))

    # The transition function inlines these updates on its hot path; the
    # methods exist for tests and non-critical callers.

    def mark_read(self, index, length=1):
        buf = self.buf
        for i in range(index, index + length):
            if buf[i] == DEP_NULL:
                buf[i] = DEP_READ

    def mark_write(self, index, length=1):
        buf = self.buf
        for i in range(index, index + length):
            s = buf[i]
            if s == DEP_NULL:
                buf[i] = DEP_WRITTEN
            elif s == DEP_READ:
                buf[i] = DEP_WAR

    # -- summaries -----------------------------------------------------------

    def read_indices(self):
        """Indices the computation depends on (READ or WAR)."""
        return [i for i, s in enumerate(self.buf) if s == DEP_READ or s == DEP_WAR]

    def written_indices(self):
        """Indices the computation modifies (WRITTEN or WAR)."""
        return [i for i, s in enumerate(self.buf)
                if s == DEP_WRITTEN or s == DEP_WAR]

    def touched_indices(self):
        """All non-NULL indices."""
        return [i for i, s in enumerate(self.buf) if s != DEP_NULL]

    def counts(self):
        """Return a dict mapping each status to its byte count."""
        out = {DEP_NULL: 0, DEP_READ: 0, DEP_WRITTEN: 0, DEP_WAR: 0}
        for s in self.buf:
            out[s] += 1
        return out

    def __repr__(self):
        c = self.counts()
        return "<DepVector read=%d written=%d war=%d null=%d>" % (
            c[DEP_READ], c[DEP_WRITTEN], c[DEP_WAR], c[DEP_NULL])
