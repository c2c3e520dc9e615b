"""A guarded set that declares no guard.

The bundled sets declare membership, so the checker skips every triple no
state enables together and no bundled expression reports an unrealizable
triple.  Over this variant the checker sweeps them all, as it did before the
sets declared their guards: `unguarded(cchar())` fails CP2 on 480 triples, all
unrealizable, so the realizability search and the report's unrealizable
entries stay covered.
"""

from otcomp.composition import ComposedComponent, dynamic_compose
from otcomp.kernel import Component
from otcomp.patterns import GuardedSet


class UnguardedSet(GuardedSet):
    def guard(self, m):
        return ()

    def update_guard(self, addr, old, new):
        return ()


def unguarded(child: Component) -> ComposedComponent:
    """`set-guarded[child]` with no guard declared: the same name, methods,
    states and functions."""
    return dynamic_compose(UnguardedSet, child)
