"""Closed-form reduced-coin operators for small step counts.

Hand-derived trigonometric expressions for the operator sets of the first
few standard and split-step walks, each in ascending label order.  They
serve as independent fixtures: the extraction code must reproduce each set
entrywise, label by label.  A split-step set of n split steps is the 2n-step
standard set with each label halved: n = 1 and 2 are the t = 2 and t = 4
tables, and n = 3 is the t = 4 table advanced two steps by
``K_mu(s + 1) = C_up K_{mu-1}(s) + C_down K_{mu+1}(s)``.
"""

from __future__ import annotations

import numpy as np


def standard_walk_operators(theta: float, t: int) -> dict[int, np.ndarray]:
    """Operator table {mu: K_mu} of the t-step standard walk, t in 1..4, in label order."""
    c, s = np.cos(theta), np.sin(theta)
    if t == 1:
        return {
            -1: np.array([[0, 0], [-1j * s, c]]),
            +1: np.array([[c, -1j * s], [0, 0]]),
        }
    if t == 2:
        return {
            -2: np.array([[0, 0], [-1j * c * s, c ** 2]]),
            0: np.array([[-s ** 2, -1j * s * c], [-1j * s * c, -s ** 2]]),
            +2: np.array([[c ** 2, -1j * s * c], [0, 0]]),
        }
    if t == 3:
        return {
            -3: np.array([[0, 0], [-1j * c ** 2 * s, c ** 3]]),
            -1: np.array([[-c * s ** 2, -1j * c ** 2 * s],
                          [-1j * c ** 2 * s + 1j * s ** 3, -2 * c * s ** 2]]),
            +1: np.array([[-2 * c * s ** 2, -1j * c ** 2 * s + 1j * s ** 3],
                          [-1j * c ** 2 * s, -c * s ** 2]]),
            +3: np.array([[c ** 3, -1j * c ** 2 * s], [0, 0]]),
        }
    if t == 4:
        off = -1j * c ** 3 * s + 2j * c * s ** 3
        return {
            -4: np.array([[0, 0], [-1j * c ** 3 * s, c ** 4]]),
            -2: np.array([[-c ** 2 * s ** 2, -1j * c ** 3 * s],
                          [off, -3 * c ** 2 * s ** 2]]),
            0: np.array([[-2 * c ** 2 * s ** 2 + s ** 4, off],
                         [off, -2 * c ** 2 * s ** 2 + s ** 4]]),
            +2: np.array([[-3 * c ** 2 * s ** 2, off],
                          [-1j * c ** 3 * s, -c ** 2 * s ** 2]]),
            +4: np.array([[c ** 4, -1j * c ** 3 * s], [0, 0]]),
        }
    raise ValueError(f"standard-walk table covers t in 1..4, got {t}")


def split_step_operators(theta: float, n: int) -> list[np.ndarray]:
    """Operator list of the n split-step walk, n in 1..3, labels -n..n in order."""
    c, s = np.cos(theta), np.sin(theta)
    if n == 1:
        return [
            np.array([[0, 0], [-1j * c * s, c ** 2]]),
            np.array([[-s ** 2, -1j * c * s], [-1j * c * s, -s ** 2]]),
            np.array([[c ** 2, -1j * c * s], [0, 0]]),
        ]
    if n == 2:
        off = -0.25j * (3 * np.cos(2 * theta) - 1) * np.sin(2 * theta)
        return [
            np.array([[0, 0], [-1j * c ** 3 * s, c ** 4]]),
            np.array([[-c ** 2 * s ** 2, -1j * c ** 3 * s],
                      [off, -3 * c ** 2 * s ** 2]]),
            np.array([[s ** 4 - 2 * c ** 2 * s ** 2, off],
                      [off, s ** 4 - 2 * c ** 2 * s ** 2]]),
            np.array([[-3 * c ** 2 * s ** 2, off],
                      [-1j * c ** 3 * s, -c ** 2 * s ** 2]]),
            np.array([[c ** 4, -1j * c ** 3 * s], [0, 0]]),
        ]
    if n == 3:
        edge = -0.5j * c ** 3 * (5 * np.cos(2 * theta) - 3) * s
        inner = -(1j / 16) * (np.sin(2 * theta) - 4 * np.sin(4 * theta)
                              + 5 * np.sin(6 * theta))
        shoulder_a = (1 / 8) * (1 - 5 * np.cos(2 * theta)) * np.sin(2 * theta) ** 2
        shoulder_b = (1 / 4) * (1 - 5 * np.cos(2 * theta)) * np.sin(2 * theta) ** 2
        center = -(1 / 4) * (4 * np.cos(2 * theta) + 5 * np.cos(4 * theta) + 3) * s ** 2
        return [
            np.array([[0, 0], [-1j * c ** 5 * s, c ** 6]]),
            np.array([[-c ** 4 * s ** 2, -1j * c ** 5 * s],
                      [edge, -5 * c ** 4 * s ** 2]]),
            np.array([[shoulder_a, edge], [inner, shoulder_b]]),
            np.array([[center, inner], [inner, center]]),
            np.array([[shoulder_b, inner], [edge, shoulder_a]]),
            np.array([[-5 * c ** 4 * s ** 2, edge],
                      [-1j * c ** 5 * s, -c ** 4 * s ** 2]]),
            np.array([[c ** 6, -1j * c ** 5 * s], [0, 0]]),
        ]
    raise ValueError(f"split-step table covers n in 1..3, got {n}")
