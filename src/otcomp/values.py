"""Immutable state and method values with canonical forms and JSON codecs.

States are one of Cell, SetOf, SeqOf, Product, Opaque.  A value is a tuple
whose first item is its class, its tag, followed by its fields, so equality
and hashing are the tuple's own: two values are equal when they are of one
class with equal fields, and a value equals no tuple of plain data.  Sets
are backed by frozenset, so their equality is structural.  Values are
ordered only through `canon_key`, which enumeration and serialization use.

This module owns the JSON literal format: `value_to_json` writes it, and
`decode_state` / `decode_method` read it back against a component's declared
structure; `display` gives the human-facing form of a state.
"""

from __future__ import annotations

from collections import _tuplegetter  # namedtuple's field accessor, in C
from typing import Any, Iterable, Optional, Tuple


class Frozen:
    """Base of the immutable records: a value, or a class whose `__init__`
    sets each of `_fields` once."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


class _Value(Frozen, tuple):
    """Base of the states that hold one value: cells and atoms."""

    __slots__ = ()
    _fields = ("value",)
    value = _tuplegetter(1, None)

    def __new__(cls, value: Any = None):
        return tuple.__new__(cls, (cls, value))


class _Items(Frozen, tuple):
    """Base of the states that hold items: sets, sequences and products."""

    __slots__ = ()
    _fields = ("items",)
    items = _tuplegetter(1, None)

    def __new__(cls, items: Tuple[Any, ...] = ()):
        return tuple.__new__(cls, (cls, items))


class Cell(_Value):
    __slots__ = ()


class Opaque(_Value):
    __slots__ = ()


class SetOf(_Items):
    __slots__ = ()

    def __new__(cls, items: frozenset = frozenset()):
        return tuple.__new__(cls, (cls, items))


class SeqOf(_Items):
    __slots__ = ()


class Product(_Items):
    __slots__ = ()


StateValue = Any  # Cell | SetOf | SeqOf | Product | Opaque


def set_of(items: Iterable[StateValue]) -> SetOf:
    return SetOf(frozenset(items))


def seq_of(items: Iterable[StateValue]) -> SeqOf:
    return SeqOf(tuple(items))


def product(items: Iterable[StateValue]) -> Product:
    return Product(tuple(items))


class Method(Frozen, tuple):
    """A symbolic operation: constructor name, data arguments, optional site
    id.  It has an instance dict, outside its fields, for `_new` (see
    ComposedComponent.update_new)."""

    _fields = ("ctor", "args", "site")
    ctor, args, site = (_tuplegetter(i, None) for i in (1, 2, 3))

    def __new__(cls, ctor: str, args: Tuple[Any, ...] = (), site: Optional[int] = None):
        return tuple.__new__(cls, (cls, ctor, args, site))

    def renamed(self, ctor: str) -> "Method":
        """This method under a constructor name: itself under its own."""
        return self if ctor == self.ctor else Method(ctor, self.args, self.site)


NOP = Method("nop")


def canon_key(v: Any, memo: Optional[dict] = None):
    """Total order key over heterogeneous values, states and methods.

    A sort over values that share sub-values passes one `memo` for the whole
    sort: it maps the id of each value keyed so far to its key, so a shared
    sub-value is keyed once.  Ids are only sound while the values live, so
    the memo must not outlive them.
    """
    if memo is not None:
        key = memo.get(id(v))
        if key is not None:
            return key
    if v is None:
        key = ("0none",)
    elif isinstance(v, bool):
        key = ("1scal", "b", int(v))
    elif isinstance(v, (int, float)):
        key = ("1scal", "n", v)
    elif isinstance(v, str):
        key = ("1scal", "s", v)
    elif isinstance(v, Cell):
        key = ("2cell", canon_key(v.value, memo))
    elif isinstance(v, Opaque):
        key = ("3atom", canon_key(v.value, memo))
    elif isinstance(v, SetOf):
        key = ("4set", tuple(sorted(canon_key(x, memo) for x in v.items)))
    elif isinstance(v, SeqOf):
        key = ("5seq", tuple(canon_key(x, memo) for x in v.items))
    elif isinstance(v, Product):
        key = ("6prod", tuple(canon_key(x, memo) for x in v.items))
    elif isinstance(v, Method):
        key = ("7meth", v.ctor, tuple(canon_key(a, memo) for a in v.args),
               -1 if v.site is None else v.site)
    elif isinstance(v, tuple):
        key = ("8tup", tuple(canon_key(x, memo) for x in v))
    else:
        raise TypeError(f"no canonical order for {type(v).__name__}")
    if memo is not None:
        memo[id(v)] = key
    return key


# The canonical form's key for each kind of state.
_KEYS = {Cell: "cell", Opaque: "atom", SetOf: "set", SeqOf: "seq", Product: "prod"}
_SCALARS = frozenset({type(None), bool, int, float, str})


def value_to_json(v: Any) -> Any:
    """Encode a state, method, or data value into plain JSON structures."""
    cls = v.__class__
    if cls in _SCALARS:
        return v
    if cls is Method:
        _, ctor, args, site = v
        out = {"ctor": ctor, "args": [value_to_json(a) for a in args]}
        if site is not None:
            out["site"] = site
        return out
    if cls is Cell or cls is Opaque:
        return {_KEYS[cls]: value_to_json(v[1])}
    if cls in _KEYS:
        items = sorted(v[1], key=canon_key) if cls is SetOf else v[1]
        return {_KEYS[cls]: [value_to_json(x) for x in items]}
    if cls is tuple:
        return {"tuple": [value_to_json(x) for x in v]}
    raise TypeError(f"cannot serialize {cls.__name__}")


def value_from_json(obj: Any) -> Any:
    """Inverse of value_to_json."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        return tuple(value_from_json(x) for x in obj)
    if isinstance(obj, dict):
        if "cell" in obj:
            return Cell(value_from_json(obj["cell"]))
        if "atom" in obj:
            return Opaque(value_from_json(obj["atom"]))
        if "set" in obj:
            return set_of(value_from_json(x) for x in obj["set"])
        if "seq" in obj:
            return seq_of(value_from_json(x) for x in obj["seq"])
        if "prod" in obj:
            return product(value_from_json(x) for x in obj["prod"])
        if "tuple" in obj:
            return tuple(value_from_json(x) for x in obj["tuple"])
        if "ctor" in obj:
            return Method(obj["ctor"],
                          tuple(value_from_json(a) for a in obj.get("args", [])),
                          obj.get("site"))
    raise ValueError(f"cannot decode value: {obj!r}")


# Argument sorts of a method constructor, as declared in
# Component.method_ctors.  Plain data is a VALUE (of the component's own
# `value_type`, as a cell's write carries), a POSITION (an int) or an address,
# declared as a tuple of as many POSITIONs as it has; a STATE or a METHOD is
# one of the element component (the component's only part).
VALUE, POSITION = "value", "position"
STATE, METHOD = "state", "method"

def decode_state(c, obj: Any) -> StateValue:
    """Read a state of component c from a JSON literal shaped like c's states.

    Besides the canonical value_to_json form, a cell or an atom may be given
    as its bare value, a container as a list of element literals, and a
    sequence also as a string of one-character elements.  A cell's or atom's
    value must be None or of c's `value_type` (ValueError otherwise).
    """
    if type(obj) in _KEYS:
        return obj
    kind = type(c.initial_state)
    if isinstance(obj, dict) and _KEYS[kind] in obj:
        obj = obj[_KEYS[kind]]
    if kind in (Cell, Opaque):
        v = value_from_json(obj)
        return kind(v if v is None else _typed(c, VALUE, v))
    if isinstance(obj, str) and kind is SeqOf:
        obj = list(obj)
    if not isinstance(obj, list) or (kind is Product and len(obj) != len(c.parts)):
        raise ValueError(f"cannot read {obj!r} as a state of {c.name}")
    parts = c.parts if kind is Product else c.parts * len(obj)
    items = [decode_state(p, x) for p, x in zip(parts, obj)]
    return set_of(items) if kind is SetOf else kind(tuple(items))


def decode_method(c, obj: Any) -> Method:
    """Read a method of component c from its value_to_json form.

    The constructor must be a string and the arguments a list, read by the
    sorts c declares for the constructor: plain data checked against its
    sort and a method's own site against being an int (ValueError
    otherwise).  A static product hands the method to the factor owning
    its constructor.
    """
    if isinstance(obj, Method):
        return obj
    fields = obj if isinstance(obj, dict) else {}
    ctor, args = fields.get("ctor"), fields.get("args", [])
    if type(ctor) is not str or type(args) is not list:
        raise ValueError(f"cannot read {obj!r} as a method of {c.name}")
    if ctor in c.owner:
        i, inner = c.owner[ctor]
        m = decode_method(c.parts[i], {**obj, "ctor": inner})
        return Method(ctor, m.args, m.site)
    sorts = c.method_ctors.get(ctor)
    if sorts is None or len(args) != len(sorts):
        raise ValueError(f"cannot read {obj!r} as a method of {c.name}")
    site = obj.get("site")
    if site is not None and type(site) is not int:
        raise ValueError(f"{site!r} is not a site")
    return Method(ctor, tuple(
        decode_state(c.parts[0], a) if sort == STATE else
        decode_method(c.parts[0], a) if sort == METHOD else
        _typed(c, sort, value_from_json(a))
        for sort, a in zip(sorts, args)), site)


def _typed(c, sort, v: Any) -> Any:
    """v, if it is plain data of the given sort for component c."""
    if type(sort) is tuple:  # an address
        ok = type(v) is tuple and len(v) == len(sort) and all(type(p) is int for p in v)
        sort = f"{len(sort)}-position address"
    elif sort == POSITION:
        ok = type(v) is int
    else:
        ok = c.value_type is None or type(v) is c.value_type
    if not ok:
        raise ValueError(f"{v!r} is not a {sort} of {c.name}")
    return v


def display(v: Any) -> Any:
    """The human-facing JSON form of a state: a cell's or atom's value, a
    string for a sequence of one-character strings, a list for other
    sequences and products, value_to_json for anything else (sets)."""
    if isinstance(v, (Cell, Opaque)):
        return v.value
    if isinstance(v, (SeqOf, Product)):
        items = [display(x) for x in v.items]
        if isinstance(v, SeqOf) and all(isinstance(x, str) and len(x) == 1
                                         for x in items):
            return "".join(items)
        return items
    return value_to_json(v)
