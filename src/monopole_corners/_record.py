"""Immutable values without generated code.

A record class lists its fields in ``__slots__`` and inherits what a frozen
dataclass would give it: a constructor taking every field once, in slot
order, by position or by name; ``Name(field=value, ...)`` as repr;
field-wise equality within the exact type; the hash of the field tuple; and
AttributeError on assignment or deletion.  Fields are set only here.  A
class writes its own ``__init__`` only to check or normalize its input, and
ends it in one ``Record.__init__`` call.  ``_canonical(*values)``, the one
trusted constructor, takes the values in slot order and checks nothing.
Records copy as tuples do: a copy is the record itself, and so is a deep
copy unless some field deep-copies to a new object (the dicts of
``ChernWeightSystem``, ``IbfReport`` and ``SplitWitness``), which is then
wrapped through ``_canonical``.  Pickles rebuild through the checked
constructor; ``SetPartition`` and ``RationalMapPair`` override
``__reduce__``, as their constructors do not take their slots as arguments.
Equality and hashing are written out only by ``SetPartition`` (its word
``index`` alone, for speed), ``GaussianRational`` (equal only to the ints
and Fractions whose value it has, and hashed like them) and, for its dict
field, ``ChernWeightSystem``'s hash.
Each class gets, when it is defined, one ``_values`` that reads its field
tuple through a single ``operator.attrgetter``; equality, hashing, pickling
and deep copies all go through it.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Given one name, the getter returns the bare value, so that is wrapped.
        names = cls.__slots__
        get = attrgetter(*names)
        cls._values = (lambda self: (get(self),)) if len(names) == 1 else (lambda self: get(self))

    def __init__(self, *values, **named):
        names = self.__slots__
        if named:
            values += tuple(named.pop(name) for name in names[len(values):] if name in named)
        if named or len(values) != len(names):
            extra = f" and {', '.join(named)} again or unknown" if named else ""
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)} once "
                            f"each, got {len(values)} of them{extra}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _canonical(cls, *values):
        """The record of `values`, one per slot in slot order, unchecked."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(self, name, value)
        return self

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

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        from copy import deepcopy

        values = self._values()   # deep-copies to itself when every field does
        copied = deepcopy(values, memo)
        return self if copied is values else self._canonical(*copied)
