"""The composition expression language: every error, with its position,
and building that only constructs."""

import pytest

from otcomp.errors import ExprError
from otcomp.kernel import Component
from otcomp.registry import build, registry_names
from otcomp.tower import build_document_tower


@pytest.mark.parametrize("expr, message, position", [
    ("cchar $", "unexpected character '$'", 6),
    ("cchar  (+)  %", "unexpected character '%'", 12),
    ("", "unexpected end of expression", 0),
    ("string[", "unexpected end of expression", 7),
    ("string[cchar] (+)", "unexpected end of expression", 17),
    ("cchar cnat", "unexpected token 'cnat'", 6),
    ("cchar ]", "unexpected token ']'", 6),
    ("(+) cchar", "expected a name, got '(+)'", 0),
    ("string[]", "expected a name, got ']'", 7),
    ("string[cchar", "missing ']'", 0),
    ("cnat (+) string[cchar cnat]", "missing ']'", 9),
    ("cchar[cnat]", "'cchar' is not a pattern", 0),
    ("cchar (+) nonesuch", "unknown name 'nonesuch'", 10),
    ("string[nonesuch]", "unknown name 'nonesuch'", 7),
])
def test_expression_errors_name_their_position(expr, message, position):
    with pytest.raises(ExprError) as info:
        build(expr)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


def _bundled_expressions():
    names = registry_names()
    leaves = names["components"] + names["patterns"]
    return (leaves
            + [f"{p}[{c}]" for p in names["patterns"] for c in leaves]
            + [" (+) ".join(names["components"]), "set-guarded[cchar] (+) cnat",
               "string[set-guarded[cchar]] (+) cnat"])


def _subclasses(cls):
    return [cls] + [s for sub in cls.__subclasses__() for s in _subclasses(sub)]


def test_building_enumerates_nothing(monkeypatch):
    # A component is built from its parts alone: no kind, pattern or not,
    # enumerates its methods or states.
    def refuse(self, b=None):
        raise RuntimeError(f"{type(self).__name__} enumerated while being built")

    spied = {"enum_states", "enum_methods", "enum_states_fn", "enum_methods_fn"}
    for cls in _subclasses(Component):
        for name in spied & set(vars(cls)):
            monkeypatch.setattr(cls, name, refuse)
    assert len(build_document_tower()) == 9
    for expr in _bundled_expressions():
        assert build(expr).name == expr
