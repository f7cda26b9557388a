"""The one base of the package's value and report classes.

A subclass lists its fields, in constructor order, as ``__slots__`` and
writes its own ``__init__``.  The field names are the class attribute
``_fields``, which defaults to the class's own non-empty ``__slots__``,
so a subclass that adds no slots keeps the fields of the shape it
extends.  :class:`Record` supplies the ``repr`` ``Name(field=value,
...)`` and an ``__eq__`` that compares the fields of two instances of
the same class and returns ``NotImplemented`` for any other class.
``class V(Record, frozen=True)`` makes assignment and deletion raise
``AttributeError`` and, unless ``V`` defines ``__hash__``, hashes the
field tuple; a frozen ``__init__`` stores its fields through
``object.__setattr__``.  Any other record is unhashable unless its class
defines ``__hash__``.  Classes on hot paths write their own ``__eq__``
and ``__hash__`` over the field tuple.  Copies and pickles go through
the constructor, so they work for frozen records too.
"""

from __future__ import annotations


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _hash_fields(self) -> int:
    return hash(self._values())


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__dict__.get("__slots__"):
            cls._fields = tuple(cls.__slots__)
        if frozen:
            cls.__setattr__ = _refuse_assignment
            cls.__delattr__ = _refuse_deletion
            if cls.__dict__.get("__hash__") is None:
                cls.__hash__ = _hash_fields

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values())
        )
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __reduce__(self):
        return type(self), self._values()
