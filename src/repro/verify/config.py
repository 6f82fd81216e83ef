"""Verification configuration: sampling rate, strict mode, re-admission.

Resolution order mirrors the fault plan's: an explicit object beats a
spec value beats the ``REPRO_VERIFY`` environment variable beats "off".
``REPRO_VERIFY`` accepts the same spec values the CLI flags produce:
``"0.25"`` samples a quarter of splices, ``"1"`` audits every splice,
``"strict"`` additionally quarantines divergent groups for the rest of
the run and makes the engines audit synchronously.
"""

import os
import random

from repro.errors import ReproError

ENV_VAR = "REPRO_VERIFY"

#: Clean audits before a quarantined group is re-admitted (non-strict).
DEFAULT_READMIT_AFTER = 8


class VerifyConfigError(ReproError):
    """A verification spec could not be parsed."""


class VerifyConfig:
    """How aggressively to shadow-audit cache splices.

    ``rate`` is the per-splice sampling probability in [0, 1]; 0
    disables verification entirely (the engines then skip every audit
    code path). ``strict`` forces ``rate`` to 1.0, audits synchronously
    (the splice is confirmed before the run proceeds past it), and
    quarantines divergent groups permanently instead of decaying.
    ``readmit_after`` is the clean-audit count before a quarantined
    group is re-admitted; ``seed`` drives the sampling RNG so runs are
    reproducible.
    """

    __slots__ = ("rate", "strict", "readmit_after", "seed", "_rng")

    def __init__(self, rate=0.0, strict=False, readmit_after=None, seed=0):
        rate = 1.0 if strict else float(rate)
        if not 0.0 <= rate <= 1.0:
            raise VerifyConfigError("verify rate must be in [0, 1], got %r"
                                    % rate)
        self.rate = rate
        self.strict = bool(strict)
        if readmit_after is None:
            readmit_after = DEFAULT_READMIT_AFTER
        self.readmit_after = None if strict else int(readmit_after)
        self.seed = seed
        self._rng = random.Random(seed)

    @property
    def enabled(self):
        return self.rate > 0.0

    def should_sample(self):
        """Deterministically decide whether to audit this splice."""
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        return self._rng.random() < self.rate

    @classmethod
    def parse(cls, spec):
        """Build a config from a spec value (``"0.25"``, ``"strict"``)."""
        text = str(spec).strip().lower()
        if text in ("", "0", "off", "none", "false"):
            return None
        if text in ("strict", "on+strict"):
            return cls(strict=True)
        try:
            rate = float(text)
        except ValueError:
            raise VerifyConfigError(
                "bad %s value %r (want a rate in [0, 1] or 'strict')"
                % (ENV_VAR, spec))
        if rate <= 0.0:
            return None
        return cls(rate=min(rate, 1.0))

    @classmethod
    def from_options(cls, verify_rate=None, strict_verify=False):
        """Build from the ``--verify-rate`` / ``--strict-verify`` pair
        (flags or submit options): ``None`` when neither was given, so
        the engine falls back to ``REPRO_VERIFY``, while an explicit
        rate of 0 is a disabled config that overrides it."""
        if strict_verify:
            return cls(strict=True)
        return None if verify_rate is None else cls(rate=verify_rate)

    @classmethod
    def from_env(cls, environ=None):
        value = (environ or os.environ).get(ENV_VAR)
        if value is None:
            return None
        return cls.parse(value)

    def __repr__(self):
        return ("VerifyConfig(rate=%.3f, strict=%s, readmit_after=%s, "
                "seed=%s)" % (self.rate, self.strict, self.readmit_after,
                              self.seed))


def resolve_verify(value):
    """Normalize an engine's ``verify`` argument.

    ``None`` defers to ``REPRO_VERIFY`` (returning ``None`` when unset
    — verification off); a :class:`VerifyConfig` passes through; any
    other value is parsed as a spec.
    """
    if value is None:
        return VerifyConfig.from_env()
    if isinstance(value, VerifyConfig):
        return value if value.enabled else None
    return VerifyConfig.parse(value)
