"""The immutable record the package's value types share.

A subclass names its fields in ``_fields`` and sets them in its own
``__init__`` through the instance dict, since assignment is refused.
Equality, hashing and the repr follow the fields in that order, and
``hash(x)`` equals the hash of the tuple of x's fields, so set iteration
order, and every output that follows it, depends only on the field values.
Every CLI request is a fresh interpreter that imports the whole package
before it answers, so the records do without ``dataclasses``: its import
and the code each decoration generates and compiles took about a quarter of
the package's import time.
"""

from operator import attrgetter


class Record:
    _fields: tuple[str, ...]

    def __init_subclass__(cls):
        get = attrgetter(*cls._fields)
        if len(cls._fields) == 1:  # attrgetter gives the bare value for one name
            cls._values = lambda self: (get(self),)
        else:
            cls._values = lambda self: get(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
