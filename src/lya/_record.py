"""Immutable value records, built without generating code.

A subclass of :class:`Record` declares its fields as class annotations, in
order, with optional class-level defaults, as a frozen dataclass does.  The
record then behaves as that dataclass: construction by position or keyword
followed by ``__post_init__``, ``AttributeError`` on assignment and
deletion, ``==`` by exact type and field tuple, ``hash`` of the field tuple,
and the same ``repr``.  Annotated names that start with ``_`` are not
fields: they stay out of ``__init__``, ``==``, ``hash`` and ``repr``, and
``__post_init__`` may set them with ``object.__setattr__``.  The fields are
the class's own annotations, so a record is not meant to be subclassed.

The dataclass machinery (``dataclasses`` and the ``inspect`` it imports, and
one ``exec`` per generated method) costs a fresh process tens of
milliseconds before it does any work; these methods are shared and
ordinary.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(n for n in cls.__annotations__ if not n.startswith("_"))
        cls._fields = names
        cls._defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        # attrgetter of a single name returns the bare value, not a 1-tuple.
        cls._key = staticmethod(attrgetter(*names) if len(names) > 1
                                else lambda obj: tuple(getattr(obj, n) for n in names))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        state = self.__dict__
        for name, value in zip(fields, args):
            state[name] = value
        self.__post_init__()

    def __post_init__(self):
        pass

    @classmethod
    def _bind(cls, args, kwargs):
        """Field values in order, or the ``TypeError`` CPython raises for the
        same call to the frozen dataclass's ``__init__``."""
        names = cls._fields
        given = dict(zip(names, args))
        for name in kwargs:
            if name not in names:
                cls._refuse(f"got an unexpected keyword argument {name!r}")
            if name in given:
                cls._refuse(f"got multiple values for argument {name!r}")
        given.update(kwargs)
        if len(args) > len(names):
            low, high = len(names) - len(cls._defaults) + 1, len(names) + 1
            takes = f"{high}" if low == high else f"from {low} to {high}"
            cls._refuse(f"takes {takes} positional arguments but {len(args) + 1} were given")
        values = {**cls._defaults, **given}
        missing = [repr(n) for n in names if n not in values]
        if missing:
            listed = missing[0] if len(missing) == 1 else (
                ", ".join(missing[:-1]) + ("," if len(missing) > 2 else "") + " and " + missing[-1])
            cls._refuse(f"missing {len(missing)} required positional "
                        f"argument{'s' if len(missing) > 1 else ''}: {listed}")
        return [values[n] for n in names]

    @classmethod
    def _refuse(cls, message):
        raise TypeError(f"{cls.__qualname__}.__init__() {message}")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({body})"
