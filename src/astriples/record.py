"""Immutable record classes, without generated code.

``class Point(Record)`` with the annotations ``x: int`` and ``y: int = 0``
has the fields x and y, in annotation order, y defaulting to 0.  An
instance takes its fields by position or by name, then calls
``__post_init__`` when the class has one.  It compares and hashes as the
tuple of its fields, only with instances of its own class, and its repr
is ``Point(x=1, y=0)``.  Assigning or deleting an attribute raises
:class:`AttributeError`.  ``__post_init__`` may still set a field through
``object.__setattr__``, and ``functools.cached_property`` still caches,
since both write the instance dict.  ``class G(Record, eq=False)`` keeps
identity equality and hashing.

These are the behaviours of ``@dataclass(frozen=True)``, without its
import (``dataclasses`` loads ``inspect``) and the methods it compiles
for each class, which every command-line process would pay at start-up.
"""


class Record:
    """Base of the immutable records; see the module docstring."""

    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields) or not kwargs.keys() <= set(
                fields[len(args):]):
            raise TypeError(f"{cls.__name__} takes the fields {fields}")
        values = {**cls._defaults, **dict(zip(fields, args)), **kwargs}
        try:
            self.__dict__.update((name, values[name]) for name in fields)
        except KeyError as exc:
            raise TypeError(f"{cls.__name__} needs the field "
                            f"{exc.args[0]!r}") from None
        if hasattr(cls, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = map("{}={!r}".format, self._fields, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
