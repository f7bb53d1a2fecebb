"""The base class of the package's validated immutable values.

A subclass lists its fields in ``_fields`` and sets them once, in its
``__init__``, through ``vars(self).update(...)``; no attribute can be
assigned or deleted after that.  Instances of one class are equal when their
fields are, hash by their fields and show them in their repr, as a frozen
dataclass would, without the cost of importing and generating one.
``functools.cached_property`` still works, since it writes the instance
dict directly.
"""


class Frozen:
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({shown})"
