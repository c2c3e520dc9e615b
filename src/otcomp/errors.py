"""Exception hierarchy shared by all otcomp modules."""


class OtcompError(Exception):
    """Base class for all otcomp errors."""


class UnknownMethod(OtcompError):
    """Method constructor not declared for the component."""


class UnknownAttribute(OtcompError):
    """Attribute not declared for the component."""


class UndefinedObservation(OtcompError):
    """The attribute is not determined by the given state (bottom value)."""


class InvalidSpec(OtcompError):
    """A component specification violates its algebraic laws at bounds."""


class BoundsTooSmall(OtcompError):
    """Enumeration too small for the requested check to be meaningful."""


class BoundsExceeded(OtcompError):
    """Estimated enumeration size exceeds the configured ceiling."""


class NotAdmissible(OtcompError):
    """Component failed the pattern's formal-parameter laws."""


class ComponentMismatch(OtcompError):
    """Methods passed to a transform do not belong to the same component."""


class ReplayMismatch(OtcompError):
    """A failing case did not replay the same way through the public kernel."""


class NotDisjoint(OtcompError):
    """Restricted check called with overlapping method subsets."""


class TooManyPermutations(OtcompError):
    """All-permutations delivery requested for more than 6 operations."""


class ExprError(OtcompError):
    """Composition expression failed to parse or resolve."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ScenarioError(OtcompError):
    """Malformed scenario file."""
