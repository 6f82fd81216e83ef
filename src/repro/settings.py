"""One declaration per setting.

A config class lists its settings once, in a ``FIELDS`` table of
:class:`Setting` rows: name, default, the type that coerces untrusted
input and — where they apply — the ``repro`` flag with its help text
and the ``REPRO_*`` variable. Construction, ``replace``, ``repr``, the
JSON-safe ``overrides()``, ``from_options`` (wire input) and the
argparse flags with ``from_args`` are all derived from that table
here, so a default is written in exactly one place.

A value resolves default -> environment -> given, when the config is
built: ``None`` always means "not given", an empty or malformed
variable reads as unset, and a copy made by ``replace`` keeps what the
original resolved.
"""

import os

from repro.errors import ReproError


class SettingsError(ReproError, ValueError):
    """A value could not be coerced, or a name is no setting."""


def as_bool(value):
    """A JSON boolean (or 0 / 1); ``bool("false")`` is not a coercion."""
    if value in (0, 1):  # True == 1
        return bool(value)
    raise ValueError("want true or false, got %r" % (value,))


class Setting:
    """One row of a settings table. ``type`` coerces untrusted input
    (``None``: taken as is); ``dest`` is the argparse destination when
    it is not the one ``flag`` spells."""

    def __init__(self, name, default=None, type=None, flag=None, help=None,
                 env=None, choices=None, dest=None, metavar=None):
        self.name, self.default, self.type = name, default, type
        self.flag, self.help, self.env = flag, help, env
        self.choices, self.metavar = choices, metavar
        self.dest = dest or (flag or name).lstrip("-").replace("-", "_")

    def coerce(self, value):
        """``value`` as this setting's type, or :class:`SettingsError`."""
        if value is None or self.type is None:
            return value
        try:
            return self.type(value)
        except (TypeError, ValueError) as exc:
            raise SettingsError("bad value for %s: %s" % (self.name, exc))

    def resolve(self, value):
        """The effective value: given, else environment, else default."""
        if value is None and self.env and os.environ.get(self.env):
            try:
                value = self.coerce(os.environ[self.env])
            except SettingsError:
                pass  # a malformed variable reads as unset
        if value is None:
            value = self.default
        if self.choices and value not in self.choices:
            raise SettingsError("%s must be %s, not %r" % (
                self.name, "/".join(self.choices), value))
        return value


def table(*rows):
    """A ``FIELDS`` table: rows by name, in declaration order."""
    return {row.name: row for row in rows}


class Settings:
    """Base of the config classes; ``vars(config)`` is the field dict."""

    FIELDS = {}
    KIND = "settings"  # names the table in error messages

    def __init__(self, **given):
        self._resolve({**dict.fromkeys(self.FIELDS), **given})

    def _resolve(self, given):
        for name, value in given.items():
            if name not in self.FIELDS:
                raise TypeError("%s has no setting %r"
                                % (type(self).__name__, name))
            setattr(self, name, self.FIELDS[name].resolve(value))
        self._finish()

    def _finish(self):
        """Normal forms and cross-field defaults; idempotent."""

    def replace(self, **given):
        """A copy with the given fields overridden."""
        copy = object.__new__(type(self))
        vars(copy).update(vars(self))
        copy._resolve(given)
        return copy

    def __repr__(self):
        inner = ", ".join("%s=%r" % kv for kv in sorted(vars(self).items()))
        return "%s(%s)" % (type(self).__name__, inner)

    def overrides(self):
        """The non-default fields, JSON-safe: ship them and
        :meth:`from_options` rebuilds the same config."""
        return {name: list(value) if isinstance(value, tuple) else value
                for name, value in sorted(vars(self).items())
                if value != self.FIELDS[name].default}

    @classmethod
    def from_options(cls, mapping, ignore_unknown=False):
        """Build from untrusted input (a decoded JSON object): each
        value coerced by its row, or :class:`SettingsError`."""
        if not isinstance(mapping, dict):
            raise SettingsError("%s options must be an object" % cls.KIND)
        unknown = sorted(set(mapping) - set(cls.FIELDS))
        if unknown and not ignore_unknown:
            raise SettingsError("unknown %s options: %s"
                                % (cls.KIND, ", ".join(unknown)))
        return cls(**{name: cls.FIELDS[name].coerce(value)
                      for name, value in mapping.items()
                      if name in cls.FIELDS})

    @classmethod
    def add_flags(cls, parser, *names, **defaults):
        """Add the named settings' flags to ``parser`` (every flagged
        setting when none is named). A keyword names a setting too and
        gives the default this parser shows instead of the table's."""
        flagged = [s.name for s in cls.FIELDS.values() if s.flag]
        for name in [*names, *defaults] or flagged:
            setting = cls.FIELDS[name]
            default = defaults.get(name, setting.default)
            kwargs = {"dest": setting.dest, "help": setting.help}
            if setting.type is as_bool:
                kwargs["action"] = "store_false" if default else "store_true"
            else:
                kwargs.update(type=setting.type, default=default,
                              choices=setting.choices,
                              metavar=setting.metavar)
            parser.add_argument(setting.flag, **kwargs)

    @classmethod
    def from_args(cls, args, **given):
        """Build from parsed arguments: each flagged setting whose
        destination ``args`` carries, then ``given`` on top."""
        parsed = vars(args)
        return cls(**{**{s.name: parsed[s.dest] for s in cls.FIELDS.values()
                         if s.flag and s.dest in parsed}, **given})
