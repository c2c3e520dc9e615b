"""A component whose three methods are enabled together two by two, but
never all three.

`a` is enabled on the states p and q, `b` on q and r, and `c` on r and p.
Every two share a state, so the checker's cut keeps every triple of them,
and no state enables all three.  Every method leaves the state as it is, and
transforms to itself but `c`, which becomes `a` against `a` and `b` against
`b`: the triples (a, b, c) and (b, a, c) fail CP2, and are unrealizable.  No
bundled expression reports an unrealizable triple, so this one keeps the
realizability search and the report's unrealizable entries covered.

Its functions read the tables it holds as fields: a table given to the
constructor defines another component of the same shape.
"""

from otcomp.kernel import Component
from otcomp.values import Method, Opaque

# A method's constructor -> the states it is enabled on.
ENABLED_ON = {"a": {"p", "q"}, "b": {"q", "r"}, "c": {"r", "p"}}
# (m1's constructor, m2's) -> m1 transformed against m2, where it is not m1.
TRANSFORMED = {("c", "a"): "a", ("c", "b"): "b"}


class Triangle(Component):
    def __init__(self, enabled_on=ENABLED_ON, transformed=TRANSFORMED):
        super().__init__("triangle", {ctor: () for ctor in enabled_on}, Opaque("p"))
        self.enabled_on, self.transformed = enabled_on, transformed
        self.attributes = {}

    def do_fn(self, m, st):
        return st

    def poss_fn(self, m, st):
        return st.value in self.enabled_on[m.ctor]

    def it_fn(self, m1, m2):
        ctor = self.transformed.get((m1.ctor, m2.ctor))
        return m1 if ctor is None else Method(ctor, ())

    def enum_methods_fn(self, b):
        return [Method(ctor, ()) for ctor in self.enabled_on]

    def enum_states_fn(self, b):
        return [Opaque(s) for s in "pqr"]
