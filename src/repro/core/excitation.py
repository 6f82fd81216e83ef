"""Excitation tracking: which parts of the state change between RIP states.

The paper learns binary classifiers only for a program's *excitations* —
bits observed to change between consecutive states sharing the recognized
instruction pointer (§4.4). This module watches the sequence of RIP
states, discovers the excited region, and projects full states onto it.

The unit of tracking here is the 32-bit *word*: any 4-byte-aligned group
of state-vector bytes containing a changed byte becomes a target word.
Working in words keeps three consumers aligned on one representation —
bit-level predictors see the words' unpacked bits, the word-level linear
regressor sees their integer values, and prediction materialization
writes them back into a state copy. The bit-level excitation counts the
paper reports are tracked separately for statistics.
"""

import hashlib

import numpy as np

from repro.errors import EngineError

_WORD = 4

#: Changes a byte must show before its word becomes a prediction target.
_EXCITATION_THRESHOLD = 1


class ObservationView:
    """One RIP state projected onto the current target-word set."""

    __slots__ = ("word_values", "bits", "version", "index")

    def __init__(self, word_values, bits, version, index):
        self.word_values = word_values  # np.uint32, one per target word
        self.bits = bits  # np.uint8 in {0,1}, 32 per target word
        self.version = version  # target-set version this view belongs to
        self.index = index  # ordinal of the observation (-1: synthetic)

    @property
    def n_bits(self):
        return len(self.bits)

    def digest(self):
        """Stable identity of the projected state (for dedup/oracle keys)."""
        h = hashlib.blake2b(self.word_values.tobytes(), digest_size=12)
        h.update(bytes([self.version & 0xFF]))
        return h.digest()


def _words_to_bits(word_values):
    as_bytes = word_values.astype("<u4").view(np.uint8)
    return np.unpackbits(as_bytes, bitorder="little")


def _bits_to_words(bits):
    as_bytes = np.packbits(bits, bitorder="little")
    return as_bytes.view("<u4").copy()


class ExcitationTracker:
    """Discovers excited words and projects states onto them.

    Feed it the full state vector at each RIP occurrence via
    :meth:`observe`. During the warmup window it only accumulates change
    statistics; afterwards it returns :class:`ObservationView` projections
    (and, if ``grow_targets``, extends the target set when a byte outside
    it changes — bumping ``version`` so consumers can resize).
    """

    def __init__(self, layout, config):
        self.layout = layout
        self.config = config
        self.version = 0
        self.n_observed = 0
        self._prev = None  # np.uint8 snapshot of previous RIP state
        self._change_counts = {}  # byte index -> times seen changed
        self._bits_changed = None  # per byte: OR of every XOR seen
        self._set_targets([])
        self._target_set = set()
        self._pending_words = set()  # discovered, not yet adopted
        self._frozen = False

    # -- properties ---------------------------------------------------------

    @property
    def frozen(self):
        """True once the warmup window has elapsed and targets exist."""
        return self._frozen

    @property
    def n_target_words(self):
        return len(self.target_words)

    @property
    def n_target_bits(self):
        return 32 * len(self.target_words)

    @property
    def excited_bit_count(self):
        """Number of individual bits ever seen to change (paper's metric)."""
        if self._bits_changed is None:
            return 0
        return int(np.unpackbits(self._bits_changed).sum())

    @property
    def excited_byte_count(self):
        return len(self._change_counts)

    # -- observation --------------------------------------------------------

    def observe(self, buf):
        """Record one RIP state; return its view once warmed up.

        ``buf`` is the raw state vector (bytes/bytearray). Returns ``None``
        during warmup.
        """
        current = np.frombuffer(bytes(buf), dtype=np.uint8)
        if self._prev is not None:
            changed = np.nonzero(current != self._prev)[0]
            if len(changed):
                self._record_changes(changed, current, self._prev)
        self._prev = current
        self.n_observed += 1

        if not self._frozen:
            if self.n_observed > self.config.warmup_observations:
                self._freeze()
            else:
                return None
            if not self._frozen:
                return None
        elif self._pending_words and (
                self.n_observed % self.config.growth_batch_observations == 0):
            self._adopt_pending()
        return self._project(current)

    def _adopt_pending(self):
        """Adopt newly excited words in a batch.

        Batching keeps target growth (and therefore predictor resizing
        and dispatch-key versioning) amortized on workloads like 2mm that
        excite a fresh output word every superstep. A pending word is
        predicted perfectly in the meantime: bytes outside the target set
        are materialized from the current state, and a word that changed
        once and settled (a written output cell) is exactly that case.
        """
        added = sorted(self._pending_words)
        self._pending_words.clear()
        self._target_set.update(added)
        # Append so existing bit positions stay stable.
        self._set_targets(self.target_words.tolist() + added)
        self.version += 1

    def _record_changes(self, changed, current, prev):
        for idx in changed.tolist():
            count = self._change_counts.get(idx, 0) + 1
            self._change_counts[idx] = count
            if self._frozen and self.config.grow_targets \
                    and count >= _EXCITATION_THRESHOLD:
                word = idx & ~(_WORD - 1)
                if word not in self._target_set \
                        and word not in self._pending_words:
                    self._pending_words.add(word)
        # Bit-level statistics (vs. the previous state).
        if self._bits_changed is None:
            self._bits_changed = np.zeros(len(current), dtype=np.uint8)
        self._bits_changed[changed] |= current[changed] ^ prev[changed]

    def _freeze(self):
        words = {idx & ~(_WORD - 1)
                 for idx, count in self._change_counts.items()
                 if count >= _EXCITATION_THRESHOLD}
        if not words:
            return  # nothing ever changed; keep warming up
        self._set_targets(sorted(words))
        self._target_set = set(words)
        self._pending_words.clear()
        self.version += 1
        self._frozen = True

    def _set_targets(self, words):
        self.target_words = np.array(words, dtype=np.int64)  # start indices
        #: State-vector index of every target byte, word after word.
        self._target_bytes = (self.target_words[:, None]
                              + np.arange(_WORD)[None, :]).reshape(-1)

    def _project(self, current):
        word_bytes = current[self._target_bytes]
        word_values = word_bytes.view("<u4").copy()
        bits = np.unpackbits(word_bytes, bitorder="little")
        return ObservationView(word_values, bits, self.version,
                               self.n_observed - 1)

    def reset_continuity(self):
        """Treat the next observation as non-consecutive (no change diff)."""
        self._prev = None

    # -- synthetic views (rollout) ---------------------------------------------

    def view_from_words(self, word_values):
        """Build a view from predicted word values (rollout input)."""
        word_values = np.asarray(word_values, dtype=np.uint32)
        if len(word_values) != self.n_target_words:
            raise EngineError("word count %d does not match targets %d"
                              % (len(word_values), self.n_target_words))
        return ObservationView(word_values, _words_to_bits(word_values),
                               self.version, -1)

    def view_from_bits(self, bits):
        """Build a view from predicted bit values (ensemble output)."""
        bits = np.asarray(bits, dtype=np.uint8)
        if len(bits) != self.n_target_bits:
            raise EngineError("bit count %d does not match targets %d"
                              % (len(bits), self.n_target_bits))
        return ObservationView(_bits_to_words(bits), bits, self.version, -1)

    # -- materialization ------------------------------------------------------

    def materialize(self, base_buf, word_values):
        """Full predicted state: ``base_buf`` with target words replaced.

        Bytes outside the target set are copied from ``base_buf`` — the
        implicit weatherman prediction for everything that has never been
        seen to change. ``word_values`` may carry *more* words than the
        current target set (a projection recorded after later target
        growth); the extras correspond to appended words and are ignored
        — their bytes come from ``base_buf``, which is exactly what they
        were before adoption.
        """
        values = np.asarray(word_values, dtype="<u4").view(np.uint8)
        n_bytes = len(self._target_bytes)
        if len(values) < n_bytes:
            raise EngineError(
                "materialize got %d word(s) for %d targets"
                % (len(values) // _WORD, n_bytes // _WORD))
        out = np.frombuffer(base_buf, dtype=np.uint8).copy()
        out[self._target_bytes] = values[:n_bytes]
        return bytearray(out)

    def words_digest(self, word_values):
        """Digest for dedup keys, consistent with ``ObservationView.digest``."""
        h = hashlib.blake2b(
            np.asarray(word_values, dtype="<u4").tobytes(), digest_size=12)
        h.update(bytes([self.version & 0xFF]))
        return h.digest()
