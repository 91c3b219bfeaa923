"""What counts as a valid value: the one copy of every input rule.

Each check takes the name the value arrives under (a parameter or a CLI
option) and the value, returns the value in its working type, and otherwise
raises ``ValueError("<name> must be <expected>, got <value!r>")``.  The
library's entry points and the CLI's options (``cli._OPTIONS``) share them.
"""

from __future__ import annotations

import math

import numpy as np

# largest count any input may ask for (25x the largest in use, t = 4000)
MAX_COUNT = 100_000

# most channel outputs (angles x step counts x input states) one call may ask for
MAX_OUTPUTS = 100 * MAX_COUNT


def refuse(name: str, expected: str, value) -> ValueError:
    return ValueError(f"{name} must be {expected}, got {value!r}")


def is_bool(value) -> bool:
    """Whether ``value`` is a bool, Python's or numpy's, bare or held in a 0-d
    array: it equals 0 or 1, but it is no number and no label."""
    return isinstance(value.item() if getattr(value, "ndim", None) == 0 else value,
                      (bool, np.bool_))


def real(name: str, value) -> float:
    """A finite real number; a bool (:func:`is_bool`) is not one."""
    if is_bool(value):
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


class Steps(tuple):
    """A step list that :func:`step_list` checked; made only there."""

    __slots__ = ()


def step_list(name: str, value) -> Steps:
    """Step counts, each a :func:`count`, as sorted non-empty :class:`Steps` without
    repeats.  :class:`Steps` are returned as they are, so only the first layer checks."""
    if isinstance(value, Steps):
        return value
    try:
        if isinstance(value, (str, bytes)):  # "12" is not the steps 1 and 2
            raise TypeError
        items = iter(value)
    except TypeError:
        raise refuse(name, "a list of step counts", value) from None
    steps = Steps(sorted({count(name, step) for step in items}))
    if not steps:
        raise refuse(name, "a non-empty list", value)
    return steps


def outputs(name: str, *sizes: int) -> int:
    """The number of outputs ``sizes`` multiply to, at most ``MAX_OUTPUTS``.

    ``name`` names the sizes, as ``"thetas x steps x states"``; the check
    needs only the sizes, so it runs before anything of that size is made.
    """
    total = math.prod(sizes)
    if total > MAX_OUTPUTS:
        raise refuse(name, f"at most {MAX_OUTPUTS} outputs in all",
                     " x ".join(map(str, sizes)))
    return total


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


def matrices(name: str, value, size: int = 2) -> np.ndarray:
    """A complex array of finite ``size`` x ``size`` matrices; leading axes are a batch of them."""
    return finite(name, value, f"finite {size}x{size} matrices",
                  lambda shape: shape[-2:] == (size, size))


def batches(names: str, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays``, once the leading axes of their matrices broadcast together."""
    try:
        np.broadcast_shapes(*(array.shape[:-2] for array in arrays))
    except ValueError:
        raise refuse(names, "matrices whose leading axes broadcast together",
                     tuple(array.shape for array in arrays)) from None
    return arrays


def kets(name: str, value) -> np.ndarray:
    """A complex array of finite kets: the last axis holds each ket's two
    amplitudes, with ``|a|^2 + |b|^2`` 1 within 1e-12; leading axes are a batch."""
    array = finite(name, value, "finite kets of two amplitudes", lambda shape: shape[-1:] == (2,))
    norms = (array.real ** 2 + array.imag ** 2).sum(axis=-1)
    if not np.abs(norms - 1.0).max(initial=0.0) <= 1e-12:
        raise refuse(name, "normalized kets, |a|^2 + |b|^2 = 1 within 1e-12", value)
    return array


def normalized(name: str, value) -> np.ndarray:
    """A complex array of finite amplitudes whose squared norm ``sum |x|^2`` is
    1 within 1e-12: one state, whatever its shape."""
    array = finite(name, value, "finite amplitudes")
    if not abs((array.real ** 2 + array.imag ** 2).sum() - 1.0) <= 1e-12:
        raise refuse(name, "a normalized state, sum |x|^2 = 1 within 1e-12", value)
    return array


def states(name: str, value) -> np.ndarray:
    """:func:`matrices` that are each a qubit state within 1e-12.

    Hermitian within 1e-12, trace 1 within 1e-12 and determinant
    ``>= -1e-12``: with unit trace, the smaller eigenvalue is ``>= -1e-12`` to
    first order.
    """
    array = matrices(name, value)
    asymmetry = np.abs(array - array.conj().swapaxes(-1, -2)).max(initial=0.0)
    trace_error = np.abs(np.trace(array, axis1=-2, axis2=-1) - 1.0).max(initial=0.0)
    determinant = (array[..., 0, 0] * array[..., 1, 1]).real - np.abs(array[..., 0, 1]) ** 2
    if not (asymmetry <= 1e-12 and trace_error <= 1e-12 and (determinant >= -1e-12).all()):
        raise refuse(name, "qubit states within 1e-12", value)
    return array
