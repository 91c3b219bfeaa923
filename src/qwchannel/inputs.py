"""What counts as a valid value: the one copy of every input rule.

Each check takes the name the value arrives under (a parameter or a CLI
option) and the value, returns the value in its working type, and otherwise
raises ``ValueError("<name> must be <expected>, got <value!r>")``.  The
library's entry points and the CLI's options (``cli._CHECKS``) share them.
"""

from __future__ import annotations

import math

import numpy as np

# largest count any input may ask for (25x the largest in use, t = 4000)
MAX_COUNT = 100_000


def refuse(name: str, expected: str, value) -> ValueError:
    return ValueError(f"{name} must be {expected}, got {value!r}")


def real(name: str, value) -> float:
    """A finite real number; a bool is not one."""
    if isinstance(value, bool):
        raise refuse(name, "a number", value)
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    except (TypeError, ValueError):
        raise refuse(name, "a number", value) from None
    if not math.isfinite(number):
        raise refuse(name, "finite", value)
    return number


def positive(name: str, value) -> float:
    if (number := real(name, value)) <= 0:
        raise refuse(name, "positive", value)
    return number


def nonnegative(name: str, value) -> float:
    if (number := real(name, value)) < 0:
        raise refuse(name, ">= 0", value)
    return number


def count(name: str, value, low: int = 1, high: int = MAX_COUNT) -> int:
    """A whole number in ``[low, high]``, as an int."""
    number = real(name, value)
    if not (number.is_integer() and low <= number <= high):
        raise refuse(name, f"a whole number in [{low}, {high}]", value)
    return int(number)


def step_list(name: str, value) -> list[int]:
    """Step counts, each a :func:`count`, as a sorted non-empty list without repeats."""
    steps = sorted({count(name, step) for step in value})
    if not steps:
        raise refuse(name, "a non-empty list", value)
    return steps


def weights(name: str, value) -> list[float]:
    """Probabilities: each ``>= 0``, summing to 1 within 1e-12."""
    probabilities = [nonnegative(name, weight) for weight in value]
    if not abs(sum(probabilities) - 1.0) <= 1e-12:
        raise refuse(name, "probabilities summing to 1", value)
    return probabilities


def finite(name: str, value, expected: str = "finite numbers",
           fits=lambda shape: True) -> np.ndarray:
    """A complex array of finite numbers whose shape ``fits``."""
    try:
        array = np.asarray(value, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError):
        raise refuse(name, expected, value) from None
    if not (fits(array.shape) and np.isfinite(array).all()):
        raise refuse(name, expected, value)
    return array


def number(name: str, value) -> complex:
    """A finite complex number."""
    return complex(finite(name, value, "a finite number", lambda shape: shape == ()))


def matrices(name: str, value) -> np.ndarray:
    """A complex array of finite 2x2 matrices; leading axes are a batch of them."""
    return finite(name, value, "finite 2x2 matrices", lambda shape: shape[-2:] == (2, 2))


def states(name: str, value, tol: float = 1e-12) -> np.ndarray:
    """:func:`matrices` that are each a qubit state within ``tol``.

    Hermitian within ``tol``, trace 1 within ``tol`` and determinant
    ``>= -tol``: with unit trace, the smaller eigenvalue is ``>= -tol`` to
    first order in ``tol``.
    """
    array = matrices(name, value)
    asymmetry = np.abs(array - array.conj().swapaxes(-1, -2)).max(initial=0.0)
    trace_error = np.abs(np.trace(array, axis1=-2, axis2=-1) - 1.0).max(initial=0.0)
    determinant = (array[..., 0, 0] * array[..., 1, 1]).real - np.abs(array[..., 0, 1]) ** 2
    if not (asymmetry <= tol and trace_error <= tol and (determinant >= -tol).all()):
        raise refuse(name, f"qubit states within {tol:g}", value)
    return array
