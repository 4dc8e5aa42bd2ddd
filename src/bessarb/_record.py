"""Immutable value records, the base of the package's data classes.

A record keeps its fields in __slots__, set once by its class's own
__init__ (Record._set); assigning or deleting an attribute afterwards
raises AttributeError.  Records compare, hash and print by their fields,
in __slots__ order.  The slots a class names as `derived` on its class
line hold what its __init__ works out from the fields: they take no part
in ==, hash or repr, survive a pickle, and replace() works them out anew.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, derived: tuple[str, ...] = ()) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name not in derived)
        cls._key = attrgetter(*cls._fields)  # no descriptor: self._key is this getter
        # each slot's own setter, which bypasses __setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _set(self, *values) -> None:
        """Set the slots, in __slots__ order, to `values`."""
        for set_slot, value in zip(self._setters, values):
            set_slot(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        self._set(*state)

    def replace(self, **changes):
        """A record of this class with `changes` to its fields, built by __init__."""
        fields = {name: getattr(self, name) for name in self._fields}
        return type(self)(**{**fields, **changes})
