"""Exception hierarchy shared by all otcomp modules."""


class OtcompError(Exception):
    """Base class for all otcomp errors."""


class UnknownMethod(OtcompError):
    """Method constructor not declared for the component, or not of the kind
    the call expects (`transform_update` takes two Updates)."""


class UnknownAttribute(OtcompError):
    """Attribute not declared for the component."""


class UndefinedObservation(OtcompError):
    """The attribute is not determined by the given state (bottom value)."""


class InvalidSpec(OtcompError):
    """A component specification violates its algebraic laws at bounds, or a
    component fails a pattern's formal-parameter laws (it is not
    admissible)."""


class BoundsExceeded(OtcompError):
    """Estimated enumeration size exceeds the configured ceiling, or is too
    small for the requested check to be meaningful."""


class ReplayMismatch(OtcompError):
    """A failing case did not replay the same way through the public kernel."""


class ExprError(OtcompError):
    """Composition expression failed to parse or resolve."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ScenarioError(OtcompError):
    """Malformed scenario file, or one whose delivery orders cannot be run
    (more than 6 operations under all-permutations delivery)."""
