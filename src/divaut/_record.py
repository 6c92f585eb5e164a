"""Frozen value records without generated code.

A subclass lists its fields as class annotations, in order; a class-level
value is that field's default.  Construction, equality, hashing and
``repr`` are the generic methods below, driven by the ``_fields`` table,
so defining a record costs no ``exec`` at import time.  Extra entries in an
instance's ``__dict__`` (caches set with ``object.__setattr__``) are not
fields and take no part in equality, hashing or ``repr``.
"""
from operator import attrgetter


class Record:
    """Base of the frozen records: positional or keyword construction, then
    ``__post_init__``; equality only between instances of the exact same
    class; assignment raises AttributeError."""

    _fields = {}      # field name -> annotation, in declaration order
    _defaults = {}    # field name -> default value

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = dict(cls.__dict__.get("__annotations__", {}))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}
        # _values(record): what equality and hashing see, the field values
        # as a tuple (the bare value of a single field)
        names = tuple(cls._fields)
        cls._values = staticmethod(attrgetter(*names) if names else lambda record: ())

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    def __post_init__(self):
        """Validates or normalizes the fields; sets one with
        ``object.__setattr__``."""

    def _bind(self, args, kwargs):
        """The field values for a call with keywords or omitted defaults;
        raises TypeError as a generated ``__init__`` would."""
        names, where = list(self._fields), f"{type(self).__qualname__}.__init__()"
        if len(args) > len(names):
            raise TypeError(f"{where} takes {len(names) + 1} positional arguments "
                            f"but {len(args) + 1} were given")
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
            if name in names[:len(args)]:
                raise TypeError(f"{where} got multiple values for argument {name!r}")
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{where} missing {len(missing)} required positional "
                            f"argument{'s' * (len(missing) > 1)}: "
                            f"{', '.join(map(repr, missing))}")
        return [values[name] for name in names]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        state = self.__dict__
        fields = ", ".join(f"{name}={state[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
