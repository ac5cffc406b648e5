"""Value records: the shared base of psifoc's small data classes.

A record class lists its fields in ``__slots__``, in the order of its
``__init__`` parameters.  :class:`Record` gives it ``==`` between
instances of the same class, field by field, a ``Name(field=value, ...)``
repr, and copying and pickling through the constructor; a plain record
is mutable and so unhashable.  :class:`Frozen` records also hash by their
fields and refuse assignment; their ``__init__`` sets the fields with
:meth:`Frozen._assign`.
"""


class Record:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._fields()


class Frozen(Record):
    __slots__ = ()

    def _assign(self, *values) -> None:
        """Set the fields, in ``__slots__`` order, once, from __init__."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
