"""The base of the package's value types.

A value type lists its fields in ``_fields`` and writes them in its own
``__init__`` with ``vars(self).update(...)``, where ``cached_property``
writes too. It then compares, hashes and shows as those fields alone:
anything else it keeps, such as a hull handed on by a construction or a
cached property, is read by none of the three. Instances are immutable,
like those of a frozen dataclass, at a fraction of the cost of defining
one when the package is imported.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    """``==``, ``hash`` and ``repr`` over ``_fields``, ``==`` between
    instances of one class only; assignment and deletion raise
    ``AttributeError``."""

    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
