"""The one base of the package's value and report classes.

A subclass lists its fields, in constructor order, as ``__slots__`` and
writes its own ``__init__``.  :class:`Record` supplies the ``repr``
``Name(field=value, ...)`` and an ``__eq__`` that compares the fields of
two instances of the same class and returns ``NotImplemented`` for any
other class, so a record is unhashable unless its class defines
``__hash__``.  ``class V(Record, frozen=True)`` makes assignment and
deletion raise ``AttributeError``; a frozen ``__init__`` stores its
fields through ``object.__setattr__``.  Classes on hot paths write their
own ``__eq__`` and ``__hash__`` over the field tuple.  Copies and pickles
go through the constructor, so they work for frozen records too.
"""

from __future__ import annotations


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


class Record:
    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        if frozen:
            cls.__setattr__ = _refuse_assignment
            cls.__delattr__ = _refuse_deletion

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._values())
        )
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __reduce__(self):
        return type(self), self._values()
