"""Frozen value records: what ``dataclass(frozen=True)`` gave, without its import.

``record`` gives a class one generated ``__init__`` (then ``__post_init__``),
``==`` and ``hash`` on the same type and the fields outside ``uncompared``, a
field ``repr`` unless the class writes one, ``__match_args__``, and
``FrozenRecordError`` on assigning or deleting a field. The private
classmethod ``_trusted``, with the parameters and defaults of ``__init__``,
stores the fields as given and skips ``__post_init__``: it is for fields that
the caller has proved, and a contract test names the modules that may call it.
"""

from operator import attrgetter


class FrozenRecordError(AttributeError):
    """A field of a record was assigned or deleted."""


def _frozen(self, name, *value):
    raise FrozenRecordError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def record(cls=None, /, *, uncompared=()):
    if cls is None:
        return lambda cls: record(cls, uncompared=uncompared)
    names = tuple(vars(cls).get("__annotations__", ()))
    namespace = {"_set": object.__setattr__, "_new": object.__new__, "__name__": cls.__module__}
    namespace.update((f"_d_{n}", vars(cls)[n]) for n in names if n in vars(cls))
    params = "".join(f", {n}=_d_{n}" if f"_d_{n}" in namespace else f", {n}" for n in names)
    body = "".join(f"\n _set(self, {n!r}, {n})" for n in names)
    post = "\n self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    exec(f"def __init__(self{params}):{body + post or ' pass'}\n"
         f"def _trusted(cls{params}):\n self = _new(cls){body}\n return self", namespace)
    compared = [n for n in names if n not in uncompared]
    key = attrgetter(*compared)  # the value of one field, the tuple of several

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((key(self),) if len(compared) == 1 else key(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({fields})"

    for name in ("__init__", "_trusted"):
        namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
    cls.__init__, cls.__eq__, cls.__hash__ = namespace["__init__"], __eq__, __hash__
    cls._trusted = classmethod(namespace["_trusted"])
    cls.__setattr__, cls.__delattr__, cls.__match_args__ = _frozen, _frozen, names
    if "__repr__" not in vars(cls):
        cls.__repr__ = __repr__
    return cls
