"""The base of the package's frozen value records.

A record lists its fields in `_fields`.  Its ``__init__`` sets each field
with `_set`, then `_values`, the tuple of the field values in that order,
so that equality, hashing, pickling and `replace` cost one tuple
operation rather than a walk over the fields.  Records of different
classes are never equal, a record's ``repr`` names its fields, and
assigning to a record raises `AttributeError`.
"""

from __future__ import annotations

_set = object.__setattr__  # past the record's own, which refuses


class Record:
    __slots__ = ("_values",)
    _fields: tuple = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuilt through ``__init__``, which recomputes whatever it derives
        return self.__class__, self._values

    def replace(self, **changes):
        """A copy with the named fields changed."""
        return self.__class__(**{**dict(zip(self._fields, self._values)), **changes})
