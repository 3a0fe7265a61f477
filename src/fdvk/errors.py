"""Failure modes that carry topological or resolution meaning.

Every exception here signals a property of the input field, not a bug:
the grid is too coarse, the form is obstructed, or the flow left its
homotopy class. Plain ValueError is reserved for malformed arguments.
"""


class FdvkError(Exception):
    """Base class for all package-specific failures."""


class GridMismatch(FdvkError):
    """Operands live on different grids."""


class NonExactForm(FdvkError):
    """2-form has nonzero flux or fails closedness; no global potential exists."""


class NonIntegralFlux(FdvkError):
    """Slice flux too far from an integer; the field is under-resolved."""


class UnresolvableField(FdvkError):
    """Adjacent sites differ by 90 degrees or more; edge logarithms unreliable."""


class NontrivialHolonomy(FdvkError):
    """A fundamental loop transports to something other than the identity."""


class NotFlat(FdvkError):
    """Plaquette holonomy deviates from the identity beyond tolerance."""


class UnderResolved(FdvkError):
    """Ansatz support under MIN_CELLS cells, or a field that misreads the class it advertises."""


class SnapshotError(FdvkError):
    """Snapshot file violates the binary layout or its unit constraints."""


class ConfigError(FdvkError):
    """Run configuration has unknown keys, bad values, or missing entries."""


class ClassViolation(FdvkError):
    """Flow left the homotopy class it was asked to preserve.

    Carries the partial trace recorded up to the abort so callers can
    still persist the monitor history.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class ChargeDrift(ClassViolation):
    """Hopf charge moved away from its starting integer during flow."""


class FluxChange(ClassViolation):
    """Rounded fluxes changed during flow."""
