"""What the daemon has learned about an image, kept across pools.

A pool (worker processes, shm rings) belongs to whoever currently
holds worker budget and is retired when another image needs the room.
Two things a job learns are facts of the *image* instead and must not
go with it: the translated basic blocks — owned by the
:class:`~repro.loader.image.Program` object, so sharing them means
sharing the object — and the recognized IP, the paper's one-off
"converge" cost (§4.3), which is a function of the image and the
engine configuration alone. :class:`ImageTable` interns one
``Program`` per image hash and remembers recognition beside it, the
least recently submitted image out first. Nothing here is persisted: a
restarted daemon recognizes each image once more.

Not thread-safe on its own; the daemon calls it under its lock.
"""

from collections import OrderedDict

#: Recognitions remembered per image (one per engine configuration and
#: hint set; each carries its training states), oldest out first.
RECOGNITIONS_PER_IMAGE = 8


def recognition_key(engine_config, hints):
    """What a recognized IP depends on beside the image: the engine
    configuration and — only when that asks for compiler hints — the
    hinted addresses (``image_hash`` leaves hints out, so two
    submissions of one image may disagree on them)."""
    hinted = None
    if engine_config.use_compiler_hints and hints:
        hinted = frozenset(hints.all_addresses())
    return (repr(engine_config), hinted)


class _Row:
    __slots__ = ("program", "recognized")

    def __init__(self, program):
        self.program = program
        self.recognized = {}  # recognition_key -> RecognizedIP


class ImageTable:
    """``image hash -> (Program, recognitions)``, LRU by submission.

    Eviction drops only the table's reference: a queued or running job
    keeps the ``Program`` it was handed, and what it then learns about
    an image the table no longer lists is simply not remembered.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self._rows = OrderedDict()  # namespace -> _Row, oldest first
        self.interned = 0
        self.evicted = 0
        self.recognitions_run = 0
        self.recognitions_reused = 0

    def __len__(self):
        return len(self._rows)

    def __contains__(self, namespace):
        return namespace in self._rows

    def intern(self, program):
        """The one ``Program`` standing for ``program``'s image: the
        argument itself the first time an image is seen, the object
        already held (with its translations) ever after."""
        namespace = program.image_hash()
        row = self._rows.get(namespace)
        if row is None:
            row = self._rows[namespace] = _Row(program)
            self.interned += 1
            while len(self._rows) > self.capacity:
                self._rows.popitem(last=False)
                self.evicted += 1
        else:
            self._rows.move_to_end(namespace)
        return row.program

    def recognition(self, namespace, key):
        """The remembered ``RecognizedIP`` for ``key`` (counted as a
        reuse: the caller runs its job on it), or ``None``."""
        row = self._rows.get(namespace)
        found = row.recognized.get(key) if row is not None else None
        if found is not None:
            self.recognitions_reused += 1
        return found

    def remember(self, namespace, key, recognized):
        """A job ran the recognizer and found ``recognized``."""
        self.recognitions_run += 1
        row = self._rows.get(namespace)
        if row is not None:
            row.recognized[key] = recognized
            if len(row.recognized) > RECOGNITIONS_PER_IMAGE:
                del row.recognized[next(iter(row.recognized))]

    def stats_dict(self):
        blocks = 0
        for row in self._rows.values():
            # TranslationStore has no public size; list() because a job
            # thread may be translating into the pool right now.
            pool = row.program.translations._pool
            blocks += sum(len(shapes) for shapes in list(pool.values())
                          if shapes)
        return {
            "held": len(self._rows),
            "capacity": self.capacity,
            "interned": self.interned,
            "evicted": self.evicted,
            "recognitions_run": self.recognitions_run,
            "recognitions_reused": self.recognitions_reused,
            "translated_blocks": blocks,
        }
