"""Exception taxonomy shared across the package, and the field checks that raise it."""

import math
from numbers import Integral, Real

# Largest integer a setting may take: every size ends up in a numpy shape.
MAX_INT = 2**63 - 1


class DmstError(Exception):
    """Base class for all package-specific failures."""


class InvalidInput(DmstError):
    """An argument violates a documented precondition (shape, range, finiteness)."""


class DataMismatch(InvalidInput):
    """Well-formed data that does not fit the model (width, labels, length, finiteness)."""


class NotPSD(DmstError):
    """A matrix required to be positive semi-definite has a negative eigenvalue."""


class NumericalFault(DmstError):
    """A computation produced non-finite values or otherwise lost numerical validity."""


class FormatError(DmstError):
    """A serialized artifact (checkpoint, config, image) is malformed."""


def check_int(name: str, value, minimum: int) -> None:
    """An integer (not a bool) in ``[minimum, MAX_INT]``, else ``InvalidInput``."""
    ok = isinstance(value, Integral) and not isinstance(value, bool)
    if not (ok and minimum <= value <= MAX_INT):
        raise InvalidInput(f"{name} must be an integer from {minimum} to {MAX_INT}, got {value!r}")


def check_real(name: str, value, minimum: float, *, strict: bool = False) -> None:
    """A finite real (not a bool) at least ``minimum``, above it when ``strict``."""
    ok = isinstance(value, Real) and not isinstance(value, bool) and value < math.inf
    if not (ok and (value > minimum if strict else value >= minimum)):
        bound = "above" if strict else "at least"
        raise InvalidInput(f"{name} must be a finite number {bound} {minimum:g}, got {value!r}")
