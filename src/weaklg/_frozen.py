"""Frozen value classes without `dataclasses`, whose exec-generated methods
and imports (inspect, ast) were a large share of every lg call's start-up."""

from operator import attrgetter


def refuse_assignment(self: object, name: str, *value: object) -> None:
    raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen {type(self).__name__}")


def frozen(cls: type) -> type:
    """cls given what @dataclass(frozen=True) gives, read from its annotations
    and without generating code: an __init__ taking the fields by position
    or keyword, with the class attributes of those names as defaults, then
    calling __post_init__ if cls has one; == and hash() over the fields; the
    repr Name(field=value, ...); AttributeError on assignment.  Fields named
    with a leading underscore are left out of ==, hash() and repr().
    Instances keep a __dict__, for functools.cached_property and copy."""
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    shown = [name for name in names if not name.startswith("_")]
    key = attrgetter(*shown)
    post_init = getattr(cls, "__post_init__", lambda self: None)

    def __init__(self, *args, **kwargs) -> None:
        values = dict(defaults, **dict(zip(names, args)), **kwargs)  # TypeError on a field given twice
        wrong = values.keys() ^ set(names)
        if wrong or len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes the fields {names}; missing or unknown: {sorted(wrong)}")
        for name in names:
            object.__setattr__(self, name, values[name])
        post_init(self)

    cls.__init__ = __init__
    cls.__eq__ = lambda self, other: key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented
    cls.__hash__ = lambda self: hash(key(self))
    cls.__repr__ = lambda self: f"{cls.__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in shown)})"
    cls.__setattr__ = cls.__delattr__ = refuse_assignment
    return cls
