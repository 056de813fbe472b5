"""Value-type behaviour shared by the package's record classes.

A record is equal only to an instance of the same class, hashes as the
tuple of its fields and shows as Name(field=value, ...).  The standard
library's generated-record decorator would give the same, but importing
it loads inspect, ast, dis and tokenize, and each decorated class execs
its generated methods: about 30 ms of every CLI start-up for the
package's dozen value types.  These bases and the NamedTuple decorator
cost a few.

A slots record lists its fields, in order, as its __slots__.
"""


class Record:
    """Mutable record: fields are the class's __slots__; unhashable."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__)
        return "%s(%s)" % (type(self).__qualname__, fields)


class FrozenRecord(Record):
    """Immutable record: __init__ sets each field with object.__setattr__,
    and any later assignment or deletion raises AttributeError."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since assignment is refused
        return (type(self), self._values())


def _tuple_eq(self, other):
    # False, not NotImplemented: a plain tuple's reflected __eq__ would
    # compare the fields and answer True
    return other.__class__ is self.__class__ and tuple.__eq__(self, other)


def _tuple_ne(self, other):
    return not _tuple_eq(self, other)


def same_class_equality(cls):
    """Class decorator for a NamedTuple record: equal only to an instance of
    the same class, never to a plain tuple or another NamedTuple with the
    same fields; hashed as the tuple of its fields."""
    cls.__eq__ = _tuple_eq
    cls.__ne__ = _tuple_ne
    cls.__hash__ = tuple.__hash__
    return cls
