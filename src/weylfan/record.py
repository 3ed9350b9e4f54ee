"""Records: the package's one way to define a data type.

A record class lists its fields in ``__slots__`` and writes its own
``__init__``, which validates the arguments and stores each field with
``object.__setattr__``.  ``Record`` gives it the rest, over the fields in
the order the ``__slots__`` of its bases and then its own list them:

* ``==`` within one class (an instance of a subclass never equals one of its
  base) and a hash that agrees with it, that of the tuple of the fields;
* refusal of any later assignment or deletion: a record is immutable;
* the repr ``ClassName(field=value, ...)``, where the class writes none;
* ``__reduce__``, so that ``copy.deepcopy`` and ``pickle`` rebuild a record
  through its constructor.  Their default route stores the slots after
  construction, which the refusal stops.

A record has at least two fields, and its constructor takes them
positionally, in order.  No code is generated when a record class is
defined, so defining one costs about as much as defining any class.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields += tuple(cls.__dict__.get("__slots__", ()))
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)

    def __repr__(self) -> str:
        values = self._values(self)
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, values))
        return f"{self.__class__.__qualname__}({body})"
