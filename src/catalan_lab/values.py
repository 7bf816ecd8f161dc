"""The base of the library's value classes.

The library's value classes derive from ``_Value``, not ``dataclass``, whose
import and generated methods took about a third of the command line's import.
The frozen ones keep their values in ``__slots__``, with no ``__dict__``, so a
path takes the same memory whatever is read first. ``_Value`` compiles the
``__init__`` of each class that only stores its fields; the classes that check
or convert their arguments write their own. The module imports nothing from
the package, so a module that needs only the base loads no other.
"""

from collections.abc import Callable
from operator import attrgetter

_new = object.__new__


class _Value:
    """Base of the value classes: a frozen dataclass's methods, written once.

    A subclass lists its fields in ``__match_args__``, in ``__init__`` order,
    and a frozen one also in ``__slots__``. Unless it writes or inherits a
    hand-written ``__init__`` or ``__new__``, it gets an ``__init__`` built
    for its fields, with the trailing fields' defaults from its dict
    ``_defaults``, which every call shares and so must be immutable. A
    hand-written ``__init__`` checks or converts the fields (``VerifyReport``'s
    makes a fresh failure list) and stores each with
    ``self._set(name, value)``, as assigning or deleting an attribute raises
    AttributeError. Pickling and copying call the class again.
    ``class C(_Value, frozen=False)`` has mutable, unhashable instances.
    """

    __slots__ = ()
    _set = object.__setattr__

    def __init_subclass__(cls, frozen: bool = True):
        cls._fields = attrgetter(*cls.__match_args__)
        built = getattr(cls, "_built_init", object.__init__)
        if cls.__new__ is _new and cls.__init__ is built:
            cls.__init__ = cls._built_init = _field_init(cls)
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None
        elif len(cls.__match_args__) == 1:
            cls.__hash__ = _Value._hash_one

    # _fields(self) is the field tuple, or the field itself when there is one.
    # Comparing a lone field outside a 1-tuple differs only for a value unequal
    # to itself, and the lone fields here are tuples; the hash needs the tuple.
    def __eq__(self, other):
        cls = type(self)
        if type(other) is cls:
            return cls._fields(self) == cls._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(type(self)._fields(self))

    def _hash_one(self):
        return hash((type(self)._fields(self),))

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _field_init(cls: type) -> Callable[..., None]:
    """The ``__init__`` of ``cls``, compiled once from source as ``dataclasses``
    builds one, so its signature, errors and cost are a hand-written one's."""
    fields, defaults = cls.__match_args__, getattr(cls, "_defaults", {})
    params = ", ".join(f"{f}=_defaults[{f!r}]" if f in defaults else f for f in fields)
    stores = "".join(f"\n    _set(self, {f!r}, {f})" for f in fields)
    namespace = {"_set": object.__setattr__, "_defaults": defaults}
    exec(f"def __init__(self, {params}):{stores}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init
