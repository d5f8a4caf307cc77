"""Plain record classes without code generation.

`record` gives a class of annotated fields the behaviour baxcat's callers
read from `dataclasses`: construction by position or keyword, a fresh
`factory` default per instance, `__repr__`, field-wise `__eq__`, `.replace`,
and for frozen classes `__hash__` and refused assignment and deletion (a
non-frozen class is unhashable).  It shares generic methods instead of
generating and `exec`-ing them per class, and imports nothing, so
`classify` and `baxterize` start without `dataclasses` and the `inspect`,
`ast` and `dis` modules it loads.  Only the class's own annotations are
fields; `dataclasses.replace`, `fields` and `asdict` do not apply.
"""


class factory:
    """A field default made afresh for each instance by `make()`."""

    def __init__(self, make):
        self.make = make


def record(cls=None, /, *, frozen=False):
    """Make `cls` a record of its annotated fields, immutable when `frozen`."""
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    for n, d in defaults.items():
        if isinstance(d, factory):
            delattr(cls, n)
    nf, title, set_field = len(names), cls.__name__, object.__setattr__

    def __init__(self, *args, **kwargs):
        # assign field by field, as a generated __init__ would: writing the
        # instance __dict__ at once would give up CPython's fast attribute reads
        if len(args) == nf and not kwargs:
            for n, a in zip(names, args):
                set_field(self, n, a)
            return
        if len(args) > nf:
            raise TypeError(f"{title}() takes {nf} positional arguments but {len(args)} "
                            f"were given")
        for n, a in zip(names, args):
            if n in kwargs:
                raise TypeError(f"{title}() got multiple values for argument {n!r}")
            kwargs[n] = a
        unknown = kwargs.keys() - set(names)
        if unknown:
            raise TypeError(f"{title}() got an unexpected keyword argument {min(unknown)!r}")
        for n in names:
            if n in kwargs:
                set_field(self, n, kwargs[n])
            elif n in defaults:
                d = defaults[n]
                set_field(self, n, d.make() if isinstance(d, factory) else d)
            else:
                raise TypeError(f"{title}() missing required argument {n!r}")

    def fields(self):
        return tuple(getattr(self, n) for n in names)

    def __eq__(self, other):
        return fields(self) == fields(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def replace(self, **changes):
        """A copy with the given fields changed."""
        return type(self)(**{**dict(zip(names, fields(self))), **changes})

    def refuse(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen {title}")

    cls.__init__, cls.__eq__, cls.__repr__, cls.replace = __init__, __eq__, __repr__, replace
    if frozen:
        cls.__hash__ = lambda self: hash(fields(self))
        cls.__setattr__ = cls.__delattr__ = refuse
    else:
        cls.__hash__ = None
    return cls
