"""Record classes: field-wise ``==``, a readable repr, and, for immutable
records, a hash and no attribute writes.

``dataclasses`` would generate all of this, at a cost every ``nea run``
pays before its first tick: importing it loads ``inspect``, and it
``exec``s generated methods for each class, about 20 ms in all for this
package's 33 records on a shared 2-vCPU x86 host.  So each record writes
its ``__slots__`` and ``__init__`` by hand and names its compared fields in
``_fields``; these bases supply the rest, built once per class.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Mutable record: ``==`` compares the ``_fields`` of two records of the
    same class (``NotImplemented`` across classes); unhashable, and the repr
    reads ``Name(field=value, ...)`` over ``_fields``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls._fields:
            cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"


class Frozen(Record):
    """Immutable record: hashable over ``_fields``; setting or deleting an
    attribute raises ``AttributeError`` (``__init__`` writes through
    ``object.__setattr__``), and a copy is the record itself."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {self.__class__.__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {self.__class__.__name__}")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):  # pickle through __init__, which takes the fields in order
        return self.__class__, tuple(getattr(self, name) for name in self._fields)
