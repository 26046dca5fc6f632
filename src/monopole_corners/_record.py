"""Immutable result records without generated code.

A record class lists its fields in ``__slots__`` and writes its own
``__init__`` with one parameter per field, in that order, setting each
field with ``object.__setattr__``.  The base class supplies what a frozen
dataclass would: ``Name(field=value, ...)`` as repr, field-wise equality
within the exact type, the hash of the field tuple, and AttributeError on
assignment or deletion.
"""


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
