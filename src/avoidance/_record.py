"""The base of the package's validating records.

Plain records are ``typing.NamedTuple``s.  A class whose ``__init__``
checks or converts its fields derives from ``Frozen`` instead: its fields
are slots that ``__init__`` sets through ``object.__setattr__``, and after
that no attribute may be set or deleted.
"""

__all__ = ["Frozen"]


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __reduce__(self):
        # pickle and copy rebuild the slots without re-running __init__
        return _rebuild, (type(self), tuple(getattr(self, name) for name in self.__slots__))


def _rebuild(cls, values):
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(obj, name, value)
    return obj
