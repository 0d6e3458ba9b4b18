"""Immutable records.

Every record type of the package (MarkedPoset, HRep, Face, Parameter and 12
more) is a subclass of a `collections.namedtuple` of its fields, which needs
no module beyond what every interpreter loads.  A record is built by
position or by keyword, compares and hashes over its fields, prints as
``Name(field=value, ...)`` and refuses every assignment with AttributeError.
A record that normalises or checks its fields does so in ``__new__``; an
HRep gets its rows, normalised, only through HRep(coords).with_rows.

A record is also a tuple: it iterates over its fields, has a length, sorts,
and equals the plain tuple of its fields (so two record types with equal
fields compare equal).  The namedtuple helpers ``_make`` and ``_replace``
build a record without its ``__new__``, skipping its normalisation; the
package does not use them.

Records without cached values have ``__slots__ = ()``.  Those that cache
derived values with `cached_property` keep an instance ``__dict__`` for
them and take `Frozen` first among their bases.
"""


class cached_property:
    """`functools.cached_property` without the lock it takes before Python
    3.12: the method runs on an instance's first read, and its value goes
    into the instance ``__dict__`` under its name, where later reads find it."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.func.__name__] = self.func(instance)
        return value


class Frozen:
    """Mixin of a namedtuple record with an instance ``__dict__``: no
    attribute can be set or deleted, as for a record with ``__slots__ = ()``.
    `cached_property` writes to the ``__dict__`` directly, so it still
    caches."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
