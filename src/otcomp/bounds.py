"""Explicit enumeration bounds for every exhaustive sweep."""

from __future__ import annotations

from .values import Frozen


class Bounds(Frozen):
    """Finite enumeration limits.

    At these defaults `check_consistency` decides 993,526 cases on
    `string[cchar]` and 2,774,653 on `string[cnat]`, the largest bundled
    check that fits; CP2 skips 404,352 and 1,509,000 triples there as not
    jointly legal.  `BENCH_27.json` records how long the first, and the
    small bundled checks, take.  CP2 is cubic in the method count, so
    raising a bound that grows the methods grows it fast.
    """

    __slots__ = _fields = ("alphabet", "nat_max", "colors", "universe", "max_len", "sites",
                           "max_methods", "max_cases")

    def __init__(self,
                 alphabet: int = 3,           # characters drawn from 'a', 'b', 'c', ...
                 nat_max: int = 3,            # naturals 0..nat_max
                 colors: int = 3,             # colors from the fixed enumeration
                 universe: int = 2,           # opaque set-element tokens
                 max_len: int = 3,            # sequence states up to this length
                 sites: int = 2,              # site ids 0..sites-1
                 max_methods: int = 100_000,  # refuse enumerations past this many methods
                 max_cases: int = 10_000_000):  # refuse sweeps past this many cases
        values = (alphabet, nat_max, colors, universe, max_len, sites, max_methods, max_cases)
        for name, value in zip(self._fields, values):
            if value < 0 or (value == 0 and name != "nat_max"):
                sign = "non-negative" if name == "nat_max" else "strictly positive"
                raise ValueError(f"bound {name} must be {sign}")
            object.__setattr__(self, name, value)

    def with_(self, **kwargs) -> "Bounds":
        return Bounds(**{**{f: getattr(self, f) for f in self._fields}, **kwargs})


DEFAULT_BOUNDS = Bounds()

# Refuse a state enumeration past this many states, before building any: a
# sequence pattern's, or a static product's.
MAX_STATES = 500_000
