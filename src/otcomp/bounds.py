"""Explicit enumeration bounds for every exhaustive sweep."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Bounds:
    """Finite enumeration limits.

    At these defaults the slowest bundled check, `check_consistency` on
    `string[cchar]` (1,362,998 cases), took about 0.55 s on a 2-vCPU Xeon VM, and
    every other bundled component under 0.1 s.  CP2 is cubic in the method
    count, so raising a bound that grows the methods grows it fast.
    """

    alphabet: int = 3      # characters drawn from 'a', 'b', 'c', ...
    nat_max: int = 3       # naturals 0..nat_max
    colors: int = 3        # colors from the fixed enumeration
    universe: int = 2      # opaque set-element tokens
    max_len: int = 3       # sequence states up to this length
    sites: int = 2         # site ids 0..sites-1
    max_methods: int = 100_000   # refuse enumerations past this many methods
    max_cases: int = 10_000_000  # refuse sweeps past this many cases

    def __post_init__(self):
        for name in ("alphabet", "nat_max", "colors", "universe", "max_len",
                     "sites", "max_methods", "max_cases"):
            if getattr(self, name) < 0 or (getattr(self, name) == 0 and name != "nat_max"):
                sign = "non-negative" if name == "nat_max" else "strictly positive"
                raise ValueError(f"bound {name} must be {sign}")

    def with_(self, **kwargs) -> "Bounds":
        return replace(self, **kwargs)


DEFAULT_BOUNDS = Bounds()
