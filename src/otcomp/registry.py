"""Component registry and the composition expression language.

Grammar (left-associative):

    expr := atom { "(+)" atom }
    atom := NAME | NAME "[" expr "]"

Leaf names resolve registered components; a bare pattern name yields the
pattern instantiated over opaque element tokens; NAME[expr] is the dynamic
composition of the inner component into the named pattern.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from .bounds import Bounds, DEFAULT_BOUNDS
from .cells import cchar, ccolor, cnat
from .composition import dynamic_compose, static_compose
from .errors import ExprError
from .kernel import Component
from .patterns import instantiate, set_pattern, string_pattern, token_component

COMPONENTS = {
    "cchar": cchar,
    "cnat": cnat,
    "ccolor": ccolor,
}

PATTERNS = {
    "set-literal": lambda: set_pattern("literal"),
    "set-guarded": lambda: set_pattern("guarded"),
    "string": string_pattern,
}

_TOKENS = re.compile(r"\s*(\(\+\)|\[|\]|[a-z0-9_-]+)")


def registry_names() -> dict:
    return {"components": sorted(COMPONENTS), "patterns": sorted(PATTERNS)}


def _tokenize(text: str) -> List[Tuple[str, int]]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKENS.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if rest:
                raise ExprError(f"unexpected character {rest[0]!r}",
                                len(text) - len(rest))
            break
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    return out


class _Builder:
    """Recursive descent over the tokens that builds each component as soon
    as its syntax is complete."""

    def __init__(self, text: str, b: Bounds):
        self.text, self.b = text, b
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def take(self) -> Tuple[str, int]:
        if self.i == len(self.tokens):
            raise ExprError("unexpected end of expression", len(self.text))
        self.i += 1
        return self.tokens[self.i - 1]

    def build(self) -> Component:
        c = self.expr()
        if self.i < len(self.tokens):
            tok, pos = self.tokens[self.i]
            raise ExprError(f"unexpected token {tok!r}", pos)
        return c

    def expr(self) -> Component:
        parts = [self.atom()]
        while self.peek() == "(+)":
            self.take()
            parts.append(self.atom())
        return parts[0] if len(parts) == 1 else static_compose(*parts)

    def atom(self) -> Component:
        tok, pos = self.take()
        if tok in ("(+)", "[", "]"):
            raise ExprError(f"expected a name, got {tok!r}", pos)
        if self.peek() == "[":
            if tok not in PATTERNS:
                raise ExprError(f"{tok!r} is not a pattern", pos)
            self.take()
            child = self.expr()
            if self.peek() != "]":
                raise ExprError("missing ']'", pos)
            self.take()
            return dynamic_compose(PATTERNS[tok](), child, b=self.b)
        if tok in COMPONENTS:
            return COMPONENTS[tok]()
        if tok in PATTERNS:  # a bare pattern holds opaque tokens
            return instantiate(PATTERNS[tok](), token_component())
        raise ExprError(f"unknown name {tok!r}", pos)


def build(expr: str, b: Bounds = DEFAULT_BOUNDS) -> Component:
    """Build the component denoted by a composition expression; `b` is
    passed to every dynamic composition."""
    return _Builder(expr, b).build()
