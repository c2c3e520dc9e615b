"""A static product is checked factor by factor.

The reference is the same checker on the product's own functions wrapped as
a plain component, which it sweeps over every product state.  The two
reports must be the same bytes under `mask_elapsed`, examine as many cases
in every part, and refuse the same products with the same message.
"""

import copy
import json

import pytest

from otcomp.bounds import DEFAULT_BOUNDS
from otcomp.cells import cchar, cnat
from otcomp.checker import check_consistency, check_cp1, check_cp2
from otcomp.composition import static_compose
from otcomp.errors import BoundsExceeded, ReplayMismatch, UnknownMethod
from otcomp.kernel import Component
from otcomp.registry import build
from otcomp.tower import TOWER_BOUNDS, build_document_tower
from otcomp.values import Method, value_from_json

B = DEFAULT_BOUNDS
U1 = B.with_(universe=1)
SHORT = B.with_(universe=1, max_len=2)
SHORT3 = SHORT.with_(sites=3)
GUARDED = B.with_(alphabet=1, nat_max=1, max_len=2)
CHECKS = (check_cp1, check_cp2, check_consistency)


def _replaced(c, **changes):
    """A shallow copy of c with the given attributes replaced."""
    c = copy.copy(c)
    for name, value in changes.items():
        setattr(c, name, value)
    return c


class _Flat(Component):
    """A product's own functions as a plain component, with no factors, so
    the checker sweeps it over every product state."""

    def __init__(self, p):
        super().__init__(p.name, p.method_ctors, p.initial_state,
                         value_type=p.value_type)
        self.product, self.attributes = p, p.attributes

    def do_fn(self, m, st):
        return self.product.do_fn(m, st)

    def poss_fn(self, m, st):
        return self.product.poss_fn(m, st)

    def it_fn(self, m1, m2):
        return self.product.it_fn(m1, m2)

    def enum_methods_fn(self, b):
        return self.product.enum_methods_fn(b)

    def enum_states_fn(self, b):
        return self.product.enum_states_fn(b)


def brute_force(p):
    """The product's functions as a plain component, with no factors."""
    return _Flat(p)


def outcome(check, c, b):
    """The masked report and each part's examined cases, or the refusal."""
    try:
        rep = check(c, b)
    except BoundsExceeded as exc:
        return "refused: " + str(exc)
    return json.dumps(rep.to_json(mask_elapsed=True)), [p.examined for p in rep.parts or [rep]]


def _broken_it(c):
    """c with a transform that ignores the concurrent method: CP1 fails."""
    return _replaced(c, it_fn=lambda m1, m2: m1)


# Every bundled product whose brute-force check fits, both orders of a
# failing one, two site-aware factors, a factor whose updates exclude others,
# one factor twice (its constructors renamed), products nested either side, a
# planted fault, one in a factor whose constructors are renamed, bare and
# nested, and four leaves, two of them site-aware, failing both conditions.
PRODUCTS = {
    "fchar": lambda: (build_document_tower()["fchar"], TOWER_BOUNDS),
    "cchar (+) cnat (+) ccolor": lambda: (build("cchar (+) cnat (+) ccolor"), B),
    "string (+) cnat": lambda: (build("string (+) cnat"), B),
    "set-guarded[cchar] (+) cnat": lambda: (build("set-guarded[cchar] (+) cnat"), B),
    "set-literal (+) cnat": lambda: (build("set-literal (+) cnat", U1), U1),
    "cnat (+) set-literal": lambda: (build("cnat (+) set-literal", U1), U1),
    "string (+) string": lambda: (build("string (+) string", SHORT3), SHORT3),
    "string[cchar] (+) cnat": lambda: (build("string[cchar] (+) cnat", GUARDED), GUARDED),
    "cchar (+) cchar": lambda: (build("cchar (+) cchar"), B),
    "nested left": lambda: (static_compose(static_compose(cchar(), build("set-literal", U1)),
                                           build("string", SHORT)), SHORT),
    "nested right": lambda: (static_compose(build("string", SHORT),
                                            static_compose(cnat(), build("set-literal", U1))),
                             SHORT),
    "broken cnat": lambda: (static_compose(cchar(), _broken_it(cnat())), B),
    "broken cchar": lambda: (static_compose(cchar(), _broken_it(cchar())), B),
    "nested broken cchar": lambda: (static_compose(cnat(), static_compose(
        cchar(), _broken_it(cchar()))), B),
    "cnat (+) string (+) set-literal (+) string":
        lambda: (build("cnat (+) string (+) set-literal (+) string", SHORT), SHORT),
}


@pytest.mark.parametrize("name", PRODUCTS)
@pytest.mark.parametrize("check", CHECKS, ids=lambda f: f.__name__)
def test_a_product_is_reported_as_its_brute_force_sweep(name, check):
    c, b = PRODUCTS[name]()
    assert outcome(check, c, b) == outcome(check, brute_force(c), b)


def test_a_fault_in_one_factor_is_caught_with_the_brute_force_witnesses():
    c, b = PRODUCTS["broken cnat"]()
    rep = check_consistency(c, b)
    assert rep.verdict == "fail" and rep.witnesses
    assert {value_from_json(w["methods"][0]).ctor for w in rep.witnesses} == {"putnat"}
    assert rep.witnesses == check_consistency(brute_force(c), b).witnesses


@pytest.mark.parametrize("name, witnesses", [("broken cchar", 96),
                                             ("nested broken cchar", 480)])
def test_a_fault_in_a_renamed_factor_is_named_as_the_product_names_it(name, witnesses):
    # The second `cchar`'s `putchar` is the product's `cchar.putchar`: its
    # leaf sweeps it under its own name, and the lift names it the product's.
    c, b = PRODUCTS[name]()
    rep = check_cp1(c, b)
    assert len(rep.witnesses) == witnesses
    assert {value_from_json(w["methods"][0]).ctor for w in rep.witnesses} == {"cchar.putchar"}


@pytest.mark.parametrize("check", CHECKS, ids=lambda f: f.__name__)
def test_a_factor_transform_giving_another_factors_method_is_refused(check):
    # `putchar` is the product's name for `cchar`'s own: a `cnat` leaf whose
    # transform gives it is wrong, however the product names it.
    wrong = _replaced(cnat(), it_fn=lambda m1, m2: Method("putchar", ("a",)))
    with pytest.raises(UnknownMethod, match="'putchar' is not a method of component 'cnat'"):
        check(static_compose(cchar(), wrong))


@pytest.mark.parametrize("check, expr", [
    # 614,125 product states: every check counts the states first.  The
    # last is refused by its first CP1 part's estimate.
    (check_cp1, "string[cchar] (+) string[cchar] (+) string[cchar]"),
    (check_cp2, "string[cchar] (+) string[cchar] (+) string[cchar]"),
    (check_consistency, "string[cchar] (+) string[cchar] (+) string[cchar]"),
    (check_consistency, "set-guarded[string] (+) cnat"),
])
def test_a_product_is_refused_as_its_brute_force_sweep_is(check, expr):
    c = build(expr)
    refusal = outcome(check, c, B)
    assert refusal.startswith("refused: ")
    assert refusal == outcome(check, brute_force(c), B)


def test_a_nested_product_is_refused_at_the_level_that_exceeds_the_ceiling():
    inner = build("string[cchar] (+) string[cchar] (+) string[cchar]")
    c = static_compose(cnat(), inner)
    refusal = outcome(check_cp1, c, B)
    assert refusal == f"refused: {inner.name}: 614125 product states exceed the ceiling 500000"
    assert refusal == outcome(check_cp1, brute_force(c), B)


@pytest.mark.parametrize("limit", [1_000, 2_000])
def test_a_product_is_refused_at_the_same_case_ceiling(limit):
    # At 2,000 the 1,331 CP2 triples fit and the 9,680 CP1 cases do not.
    c, b = build("cchar (+) cnat (+) ccolor"), B.with_(max_cases=limit)
    for check in CHECKS:
        assert outcome(check, c, b) == outcome(check, brute_force(c), b)


def test_a_triple_of_a_product_past_the_state_ceiling_is_refused_when_realized():
    # CP2 builds no state until a failing triple asks for its realizability:
    # five strings have 15^5 = 759,375 product states.
    c = build(" (+) ".join(["string"] * 5))
    refusal = outcome(check_cp2, c, B)
    assert refusal == f"refused: {c.name}: 759375 product states exceed the ceiling 500000"
    assert refusal == outcome(check_cp2, brute_force(c), B)


@pytest.mark.parametrize("name", ["fchar", "string (+) cnat", "nested right"])
def test_a_product_check_builds_no_product_state(monkeypatch, name):
    c, b = PRODUCTS[name]()
    want = outcome(check_consistency, brute_force(c), b)

    def enumerated(b):
        raise RuntimeError("a product state was built")

    for p in (c, *[f for f in c.parts if f.parts and f.owner]):
        monkeypatch.setattr(p, "enum_states_fn", enumerated)
    assert outcome(check_consistency, c, b) == want


def _flaky(c):
    """c whose transform answers each pair as c does once, then differently."""
    seen = set()

    def it_fn(m1, m2):
        out = c.it_fn(m1, m2)
        if (m1, m2) in seen:
            return m1 if out != m1 else m2
        seen.add((m1, m2))
        return out

    return _replaced(c, it_fn=it_fn)


@pytest.mark.parametrize("check, condition, factor, b", [
    (check_cp1, "CP1", lambda: build("set-literal", U1), U1),
    (check_cp2, "CP2", lambda: build("string"), B),
])
def test_a_lifted_entry_that_does_not_replay_on_the_product_raises(check, condition,
                                                                   factor, b):
    # The factor fails the condition.  The leaf's sweep asks each pair once;
    # the replay on the product asks the product's transform, which asks the
    # factor's again.
    with pytest.raises(ReplayMismatch, match=f"{condition} case"):
        check(static_compose(cnat(), _flaky(factor())), b)
