"""Record classes: fields declared by annotations, without ``dataclasses``.

``@record`` turns a class whose body annotates its fields (optionally with
defaults) into a frozen record; ``@mutable_record`` into a mutable one.  A
record is built by position or keyword, runs ``__post_init__`` if the class
defines one, supports class patterns through ``__match_args__``, compares
equal to a record of the same class with equal fields, prints as
``Name(field=value, ...)``, and copies and pickles by its fields.  Frozen
records hash by their fields and raise AttributeError on assignment; mutable
records are unhashable.

Fields live in ``__slots__``.  ``__init__``, ``__eq__`` and ``__hash__``
are made per class from the templates below, by renaming the placeholder
names in a copy of the template's code object; no source is compiled when a
class is defined, and an instance costs what handwritten methods would.
"""

from __future__ import annotations

# One template per field count.  The placeholders _0, _1, ... stand for the
# field names, as parameters of __init__ and as attributes in __eq__ and
# __hash__; setN is the slot setter of field N.


def _fields1(set0, post):
    def __init__(self, _0):
        set0(self, _0)
        if post is not None:
            post(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self._0,) == (other._0,)
        return NotImplemented

    def __hash__(self):
        return hash((self._0,))

    return __init__, __eq__, __hash__


def _fields2(set0, set1, post):
    def __init__(self, _0, _1):
        set0(self, _0)
        set1(self, _1)
        if post is not None:
            post(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self._0, self._1) == (other._0, other._1)
        return NotImplemented

    def __hash__(self):
        return hash((self._0, self._1))

    return __init__, __eq__, __hash__


def _fields3(set0, set1, set2, post):
    def __init__(self, _0, _1, _2):
        set0(self, _0)
        set1(self, _1)
        set2(self, _2)
        if post is not None:
            post(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self._0, self._1, self._2) == (other._0, other._1, other._2)
        return NotImplemented

    def __hash__(self):
        return hash((self._0, self._1, self._2))

    return __init__, __eq__, __hash__


def _fields4(set0, set1, set2, set3, post):
    def __init__(self, _0, _1, _2, _3):
        set0(self, _0)
        set1(self, _1)
        set2(self, _2)
        set3(self, _3)
        if post is not None:
            post(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self._0, self._1, self._2, self._3) == (other._0, other._1, other._2, other._3)
        return NotImplemented

    def __hash__(self):
        return hash((self._0, self._1, self._2, self._3))

    return __init__, __eq__, __hash__


_TEMPLATES = (None, _fields1, _fields2, _fields3, _fields4)

_MISSING = object()


def _named(fn, cls: type, fields: tuple[str, ...]):
    """fn with its placeholders renamed to the fields, as a method of cls."""
    rename = {f"_{i}": f for i, f in enumerate(fields)}
    code = fn.__code__
    code = code.replace(
        co_names=tuple(rename.get(n, n) for n in code.co_names),
        co_varnames=tuple(rename.get(n, n) for n in code.co_varnames),
    )
    out = type(fn)(code, fn.__globals__, fn.__name__, None, fn.__closure__)
    out.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
    return out


def _repr(self) -> str:
    fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _reduce(self) -> tuple:
    return type(self), tuple(getattr(self, f) for f in self.__match_args__)


def _frozen(self, name: str, *_: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _build(cls: type, frozen: bool) -> type:
    fields = tuple(cls.__dict__.get("__annotations__", {}))
    if not 1 <= len(fields) < len(_TEMPLATES):
        raise TypeError(
            f"a record has 1 to {len(_TEMPLATES) - 1} fields, {cls.__name__} has {len(fields)}"
        )
    defaults = tuple(cls.__dict__.get(f, _MISSING) for f in fields)
    first = next((i for i, d in enumerate(defaults) if d is not _MISSING), len(fields))
    if any(d is _MISSING for d in defaults[first:]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    skip = {*fields, "__dict__", "__weakref__"}
    ns = {k: v for k, v in cls.__dict__.items() if k not in skip}
    ns.update(__slots__=fields, __match_args__=fields, __qualname__=cls.__qualname__)
    ns.setdefault("__repr__", _repr)
    ns.setdefault("__reduce__", _reduce)
    if frozen:
        ns.setdefault("__setattr__", _frozen)
        ns.setdefault("__delattr__", _frozen)
    new = type(cls)(cls.__name__, cls.__bases__, ns)
    setters = [new.__dict__[f].__set__ for f in fields]
    init, eq, hash_ = _TEMPLATES[len(fields)](*setters, ns.get("__post_init__"))
    new.__init__ = _named(init, new, fields)
    new.__init__.__defaults__ = defaults[first:] or None
    if "__eq__" not in ns:
        new.__eq__ = _named(eq, new, fields)
    if "__hash__" not in ns:
        new.__hash__ = _named(hash_, new, fields) if frozen else None
    return new


def record(cls: type) -> type:
    """A frozen, hashable record class built from cls's annotated fields."""
    return _build(cls, frozen=True)


def mutable_record(cls: type) -> type:
    """A mutable, unhashable record class built from cls's annotated fields."""
    return _build(cls, frozen=False)
