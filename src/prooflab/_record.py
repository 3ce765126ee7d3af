"""Frozen value records, declared the way a frozen dataclass is.

``@record`` reads a class's fields from its own annotations, in order;
a field with a class-level value takes it as its default. The class
gets ``__init__`` (positional, keyword and default arguments, then
``__post_init__`` if the class has one), ``__eq__`` between instances
of the same class only, ``__hash__`` equal to the hash of the field
tuple, a ``Name(field=value, ...)`` ``__repr__``, and a ``__setattr__``
and ``__delattr__`` that raise :class:`FrozenInstanceError`. A method
the class defines itself is kept.

The methods are closures over the field names, so declaring a record
runs no generated code and needs neither ``dataclasses`` nor
``inspect``, whose imports took about a third of the time it takes to
import the package.
"""

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a frozen value."""


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls):
    """Make ``cls`` a frozen record over its annotated fields."""
    names = tuple(cls.__annotations__)
    # a class-level value is a default, unless it is a slot's descriptor
    slots = cls.__dict__.get("__slots__", ())
    defaults = {
        name: cls.__dict__[name] for name in names if name in cls.__dict__ and name not in slots
    }
    post_init = getattr(cls, "__post_init__", None)
    arity = len(names)
    if arity >= 2:
        values = attrgetter(*names)  # a tuple for two names or more
    elif arity:
        get = attrgetter(names[0])

        def values(self):
            return (get(self),)

    else:

        def values(self):
            return ()

    def __init__(self, *args, **kwargs):
        if len(args) == arity and not kwargs:
            self.__dict__.update(zip(names, args))
        else:
            self.__dict__.update(_bind(cls, names, defaults, args, kwargs))
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    methods = {
        "__init__": __init__,
        "__eq__": __eq__,
        "__hash__": __hash__,
        "__repr__": __repr__,
        "__setattr__": _frozen_setattr,
        "__delattr__": _frozen_delattr,
    }
    for name, method in methods.items():
        # a class that defines __eq__ alone has __hash__ = None
        if cls.__dict__.get(name) is None:
            setattr(cls, name, method)
    return cls


def _bind(cls, names, defaults, args, kwargs):
    """The field values of a call that is not one positional value per
    field, in field order, with the errors a generated signature raises."""
    if len(args) > len(names):
        raise TypeError(
            f"{cls.__qualname__}() takes {len(names)} positional arguments "
            f"but {len(args)} were given"
        )
    given = dict(zip(names, args))
    for key, value in kwargs.items():
        if key not in names:
            raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {key!r}")
        if key in given:
            raise TypeError(f"{cls.__qualname__}() got multiple values for argument {key!r}")
        given[key] = value
    missing = [name for name in names if name not in given and name not in defaults]
    if missing:
        raise TypeError(
            f"{cls.__qualname__}() missing required arguments: {', '.join(map(repr, missing))}"
        )
    return {name: given[name] if name in given else defaults[name] for name in names}
