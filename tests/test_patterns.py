"""Container patterns: the finite set, the sequence, admissibility, and the
element contract."""

import itertools

import pytest

from otcomp import kernel, patterns, values
from otcomp.bounds import DEFAULT_BOUNDS
from otcomp.cells import cchar
from otcomp.checker import check_consistency
from otcomp.composition import dynamic_compose, is_update, make_update, update_addr
from otcomp.errors import BoundsExceeded, UndefinedObservation
from otcomp.patterns import (Token, check_admissible, set_pattern, string_pattern,
                             token_component)
from otcomp.values import NOP, Cell, Method, Opaque, SeqOf, SetOf, set_of, seq_of

B = DEFAULT_BOUNDS


def _tokens(n):
    return B.with_(universe=n)


# --- admissibility ----------------------------------------------------------

def test_admissible_with_structural_equality():
    rep = check_admissible(set_pattern(), token_component(), b=_tokens(3))
    assert rep.ok and rep.states_checked == 3


def test_admissibility_needs_two_states():
    with pytest.raises(BoundsExceeded):
        check_admissible(set_pattern(), token_component(), b=_tokens(1))


def test_admissibility_takes_no_other_equality():
    with pytest.raises(TypeError, match="phi must be None"):
        check_admissible(set_pattern(), token_component(), lambda a, b: a == b, _tokens(2))


# --- finite set bodies ------------------------------------------------------

@pytest.fixture(scope="module")
def sguard():
    return set_pattern("guarded")(token_component())


@pytest.fixture(scope="module")
def sliteral():
    return set_pattern("literal")(token_component())


def _add(e):
    return Method("add", (Opaque(e),))


def _rem(e):
    return Method("remove", (Opaque(e),))


def test_set_add_and_remove(sguard):
    s = kernel.apply(sguard, _add("x"), SetOf())
    assert s == set_of([Opaque("x")])
    assert kernel.observe(sguard, "iselem", (Opaque("x"),), s)
    s = kernel.apply(sguard, _rem("x"), s)
    assert s == SetOf()
    assert not kernel.observe(sguard, "iselem", (Opaque("x"),), s)


def test_remove_requires_membership(sguard, sliteral):
    for c in (sguard, sliteral):
        assert not kernel.enabled(c, _rem("x"), SetOf())
        assert kernel.enabled(c, _rem("x"), set_of([Opaque("x")]))


def test_add_enabledness_is_where_the_variants_differ(sguard, sliteral):
    present = set_of([Opaque("x")])
    assert kernel.enabled(sliteral, _add("x"), present)
    assert not kernel.enabled(sguard, _add("x"), present)
    assert kernel.enabled(sguard, _add("y"), present)


def test_set_transform_table(sguard):
    # Duplicated effects collapse to nop; everything else passes through.
    assert kernel.transform(sguard, _add("x"), _add("x")) == NOP
    assert kernel.transform(sguard, _rem("x"), _rem("x")) == NOP
    assert kernel.transform(sguard, _add("x"), _add("y")) == _add("x")
    assert kernel.transform(sguard, _rem("x"), _rem("y")) == _rem("x")
    assert kernel.transform(sguard, _add("x"), _rem("x")) == _add("x")
    assert kernel.transform(sguard, _rem("x"), _add("x")) == _rem("x")


def test_a_set_is_refused_past_the_state_ceiling(monkeypatch):
    # The ceiling sequences and products use, at its boundary: 2**3 subsets
    # of three tokens fit a ceiling of 8, and 2**4 of four do not.
    monkeypatch.setattr(patterns, "MAX_STATES", 8)
    body = set_pattern("guarded")(token_component())
    assert len(body.enum_states(_tokens(3))) == 8
    with pytest.raises(BoundsExceeded, match="^set-guarded: 16 subset states$"):
        body.enum_states(_tokens(4))


def test_set_instantiation_ranges_over_child_states():
    c = set_pattern("guarded")(cchar())
    elems = {m.args[0] for m in c.enum_methods(B) if m.ctor == "add"}
    assert elems == set(cchar().enum_states(B))
    s = kernel.apply(c, Method("add", (Cell("a"),)), SetOf())
    assert kernel.observe(c, "iselem", (Cell("a"),), s)


# --- sequence body ----------------------------------------------------------

@pytest.fixture(scope="module")
def seq():
    return string_pattern()(token_component())


def _ins(p, e, site=0):
    return Method("Ins", (p, Opaque(e)), site)


def _del(p, site=0):
    return Method("Del", (p,), site)


def test_sequence_insert_delete(seq):
    s = kernel.apply(seq, _ins(0, "x"), SeqOf())
    s = kernel.apply(seq, _ins(1, "y"), s)
    assert s == seq_of([Opaque("x"), Opaque("y")])
    assert kernel.observe(seq, "length", (), s) == 2
    assert kernel.observe(seq, "elemAt", (1,), s) == Opaque("y")
    s = kernel.apply(seq, _del(0), s)
    assert s == seq_of([Opaque("y")])


def test_sequence_position_enabledness(seq):
    one = seq_of([Opaque("x")])
    assert kernel.enabled(seq, _ins(1, "y"), one)
    assert not kernel.enabled(seq, _ins(2, "y"), one)
    assert kernel.enabled(seq, _del(0), one)
    assert not kernel.enabled(seq, _del(1), one)


def test_element_observation_past_the_end_is_undefined(seq):
    with pytest.raises(UndefinedObservation):
        kernel.observe(seq, "elemAt", (0,), SeqOf())


def test_sequence_transform_shifts_positions(seq):
    # A deletion behind an insertion slides right; in front it is unaffected.
    assert kernel.transform(seq, _del(5, 2), _ins(1, "x", 1)) == _del(6, 2)
    assert kernel.transform(seq, _del(0, 2), _ins(1, "x", 1)) == _del(0, 2)
    # An insertion behind a deletion slides left.
    assert kernel.transform(seq, _ins(3, "x", 1), _del(1, 2)) == _ins(2, "x", 1)
    assert kernel.transform(seq, _ins(1, "x", 1), _del(1, 2)) == _ins(1, "x", 1)
    # Concurrent deletions of the same element collapse to nop.
    assert kernel.transform(seq, _del(2, 1), _del(2, 2)) == NOP
    assert kernel.transform(seq, _del(3, 1), _del(2, 2)) == _del(2, 1)


def test_equal_position_inserts_break_ties_by_site(seq):
    a, b = _ins(1, "x", 1), _ins(1, "y", 2)
    assert kernel.transform(seq, a, b) == a
    assert kernel.transform(seq, b, a) == Method("Ins", (2, Opaque("y")), 2)


def test_tie_break_converges(seq):
    base = seq_of([Opaque("x"), Opaque("x")])
    a, b = _ins(1, "x", 1), _ins(1, "y", 2)
    left = kernel.apply_seq(seq, [a, kernel.transform(seq, b, a)], base)
    right = kernel.apply_seq(seq, [b, kernel.transform(seq, a, b)], base)
    assert left == right


# --- token elements ---------------------------------------------------------

def test_token_states_follow_universe_bound():
    t = token_component()
    assert t.enum_states(_tokens(2)) == [Opaque("x"), Opaque("y")]
    assert len(t.enum_states(_tokens(8))) == 8


def test_a_token_checks_on_nop_alone_with_no_functions_of_its_own():
    # The kernel answers `nop` itself and no leaf sweeps it, so nothing calls
    # a token's do_fn, poss_fn or it_fn: it has none.
    t = token_component()
    assert not [f for f in ("do_fn", "poss_fn", "it_fn") if hasattr(t, f)]
    rep = check_consistency(t, _tokens(2))
    assert [(p.property, p.verdict, p.cases) for p in rep.parts] == [("CP1", "pass", 2),
                                                                     ("CP2", "pass", 1)]


# --- the element contract ---------------------------------------------------
# A pattern uses its elements only through ==, hash and canon_key.  Sentinel
# elements allow those and repr, and raise on anything else a pattern could
# read: ordering, arithmetic, truth, an attribute (isinstance included).

class ElementUsed(Exception):
    pass


def _refuse(*args):
    raise ElementUsed("an element was used beyond ==, hash and canon_key")


def _tag(e):
    return object.__getattribute__(e, "_tag")


class Sentinel:
    __slots__ = ("_tag",)

    def __init__(self, tag):
        object.__setattr__(self, "_tag", tag)

    def __eq__(self, other):
        return type(other) is Sentinel and _tag(self) == _tag(other)

    def __hash__(self):
        return hash(_tag(self))

    def __repr__(self):
        return f"Sentinel({_tag(self)})"

    __getattribute__ = __setattr__ = __bool__ = __len__ = __iter__ = _refuse
    __lt__ = __le__ = __gt__ = __ge__ = __index__ = __int__ = __float__ = _refuse
    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = __neg__ = _refuse


class SentinelElements(Token):
    def enum_states_fn(self, b):
        return [Sentinel(i) for i in range(b.universe)]


@pytest.fixture
def sentinel_keys(monkeypatch):
    """canon_key, which the kernel sorts enumerations by, keys a sentinel by
    its tag."""
    key = values.canon_key

    def canon_key(v, memo=None):
        return ("sentinel", _tag(v)) if type(v) is Sentinel else key(v, memo)

    monkeypatch.setattr(values, "canon_key", canon_key)
    monkeypatch.setattr(kernel, "canon_key", canon_key)


def test_a_sentinel_refuses_what_the_contract_excludes():
    x, y = Sentinel(0), Sentinel(1)
    assert x == Sentinel(0) and x != y and len({x, y, Sentinel(1)}) == 2
    for use in (lambda: x < y, lambda: x + y, lambda: bool(x), lambda: x.value,
                lambda: isinstance(x, Opaque)):
        with pytest.raises(ElementUsed):
            use()


_PATTERNS = pytest.mark.parametrize(
    "make", [lambda: set_pattern("literal"), lambda: set_pattern("guarded"), string_pattern],
    ids=["set-literal", "set-guarded", "string"])


@_PATTERNS
@pytest.mark.parametrize("max_len", [1, 2, 3, 4])
def test_every_update_address_has_the_declared_arity(make, max_len):
    # A pattern declares only its address sorts, so building a dynamic
    # composition needs no bounds to learn them.  Its Updates are worked
    # out: every address of that arity with positions below max_len, every
    # old child state and child method, and each site that issues the
    # body's own methods (the string's), or no site (the sets').
    pattern = make()
    assert set(pattern.update_address) <= {values.POSITION}
    string = pattern.name == "string"
    for child, sites in itertools.product((cchar, token_component), (1, 2, 3)):
        b = B.with_(max_len=max_len, sites=sites)
        c = dynamic_compose(pattern, child())
        updates = [m for m in c.enum_methods(b) if is_update(m)]
        addrs = [(p,) for p in range(max_len)] if string else [()]
        issuers = set(range(sites)) if string else {None}
        assert sorted({update_addr(u) for u in updates}) == addrs
        assert {u.site for u in updates} == issuers
        kid = c.parts[0]
        assert len(set(updates)) == len(updates) == (
            len(addrs) * len(kid.enum_states(b)) * len(kid.enum_methods(b)) * len(issuers))


@_PATTERNS
@pytest.mark.parametrize("child", [cchar, token_component], ids=["cchar", "token"])
def test_no_state_enables_two_updates_whose_guards_clash(make, child):
    # A method's guard is its Poss row, and two clash when no state enables
    # both: the checker skips a CP2 triple holding two such methods as not
    # jointly legal (`tests/test_checker.py` checks that it skips exactly
    # these).  Asked through the public kernel: only the string's Updates
    # and the guarded set's methods clash, and every method is enabled on
    # some state, so none clashes with every method.
    c = dynamic_compose(make(), child())
    methods = [m for m in c.enum_methods(B) if m.ctor != "nop"]
    states = c.enum_states(B)
    on = {m: {i for i, st in enumerate(states) if kernel.enabled(c, m, st)} for m in methods}
    separated = [(m1, m2) for m1, m2 in itertools.combinations(methods, 2)
                 if not on[m1] & on[m2]]
    assert bool(separated) == (c.pattern.name != "set-literal")
    # The guarded set's container methods clash too: `remove e` with `add e`.
    assert any(not is_update(m) for pair in separated for m in pair) == (
        c.pattern.name == "set-guarded")
    assert all(on.values())


@pytest.mark.parametrize("variant", ["literal", "guarded"])
def test_the_set_patterns_declare_membership(variant):
    # A method of a set is enabled exactly where some elements are present
    # and some absent: `remove e` needs e present, the guarded `add e` needs
    # it absent, and an update needs its old element present and, guarded,
    # its new one absent unless they are equal.  A set holds many elements,
    # so updates of two different old elements are enabled together.
    c = dynamic_compose(set_pattern(variant), cchar())
    states = c.enum_states(B)
    every = frozenset().union(*(st.items for st in states))

    def needs(m):
        """The elements m needs present and absent, if it needs no more."""
        on = [st.items for st in states if kernel.enabled(c, m, st)]
        present, absent = frozenset.intersection(*on), every.difference(*on)
        assert on == [st.items for st in states
                      if present <= st.items and not absent & st.items], m
        return present, absent

    a, b, none = frozenset([Cell("a")]), frozenset([Cell("b")]), frozenset()
    guarded = variant == "guarded"
    assert needs(NOP) == (none, none)
    assert needs(Method("remove", (Cell("a"),))) == (a, none)
    assert needs(Method("add", (Cell("a"),))) == (none, a if guarded else none)
    for child_method in (NOP, Method("putchar", ("a",))):  # the new element is the old
        assert needs(make_update((), Cell("a"), child_method)) == (a, none)
    assert needs(make_update((), Cell("a"), Method("putchar", ("b",)))) == (
        a, b if guarded else none)
    edits = [make_update((), old, Method("putchar", ("c",))) for old in (Cell("a"), Cell("b"))]
    assert all(kernel.enabled(c, u, set_of([Cell("a"), Cell("b")])) for u in edits)


@_PATTERNS
def test_a_pattern_reads_its_elements_through_equality_and_hash_alone(sentinel_keys, make):
    # Every method and state of the pattern over three sentinel elements,
    # through the container's functions and the pattern's Update semantics.
    b = B.with_(universe=3)
    elements = SentinelElements()
    c = dynamic_compose(make(), elements)
    methods = [m for m in c.enum_methods(b) if m.ctor != "nop"]
    states = c.enum_states(b)
    assert {is_update(m) for m in methods} == {True, False} and len(states) > 3
    for m, st in itertools.product(methods, states):
        c.poss_fn(m, st)
        c.do_fn(m, st)
    for m1, m2 in itertools.product(methods, repeat=2):
        c.it_fn(m1, m2)
    elems = elements.enum_states(b)
    container = [m for m in methods if not is_update(m)]
    addrs = {update_addr(m) for m in methods if is_update(m)}
    for addr, old, new in itertools.product(addrs, elems, elems):
        for st in states:
            c.body.update_poss(addr, old, new, st)
            c.body.update_do(addr, old, new, st)
        for m in container:
            c.body.it_update_vs_method(addr, old, new, m)
            c.body.it_method_vs_update(m, addr, old, new)
