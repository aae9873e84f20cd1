"""Value semantics for the package's record classes, from plain methods.

The standard library's record decorator is not used: importing it loads
``inspect``, ``ast``, ``dis`` and ``tokenize``, and each decorated class
``exec``s the source of its generated methods, a large share of a cold CLI
process's start-up.  A subclass names its fields, in order, in
``__match_args__`` (so ``match`` class patterns work) and writes its own
``__init__``; a frozen one sets each field with ``object.__setattr__`` and
then calls its ``__post_init__`` check, if it has one.  The generic
``__eq__`` and ``__hash__`` read the fields by name; ``LaurentSeries`` and
``Monomial``, compared and hashed on hot paths, override them with the
field tuple written out.
"""

from __future__ import annotations


class Record:
    """A mutable record: a field-by-field ``repr``, and ``==`` that holds only
    between instances of the same class with equal fields.

    Defining ``__eq__`` without ``__hash__`` leaves the class unhashable.
    """

    __match_args__: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """An immutable record, hashed by its field tuple."""

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
