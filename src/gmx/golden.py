"""Hand-transcribed closed forms of the benchmark states for N = 2, 3, 4.

These matrices were entered independently of the factory code in
:mod:`gmx.states` (which builds the same states from operator products),
so agreement between the two routes is a meaningful cross-check.  Only the
lower triangle is written out; the upper triangle follows from
Hermiticity.
"""

from __future__ import annotations

import numpy as np


def _from_lower(rows: list[list[complex]], dim: int) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            m[r, c] = v
    return np.tril(m) + np.tril(m, -1).conj().T


def ds_reference(n: int, p) -> np.ndarray:
    """Diagonal symmetric state for N = 2, 3, 4 from the explicit tables."""
    p = np.asarray(p, dtype=float)
    if n == 2:
        rows = [
            [2 * p[0]],
            [0, p[1]],
            [0, p[1], p[1]],
            [0, 0, 0, 2 * p[2]],
        ]
        return _from_lower(rows, 4) / 2.0
    if n == 3:
        rows = [
            [3 * p[0]],
            [0, p[1]],
            [0, p[1], p[1]],
            [0, 0, 0, p[2]],
            [0, p[1], p[1], 0, p[1]],
            [0, 0, 0, p[2], 0, p[2]],
            [0, 0, 0, p[2], 0, p[2], p[2]],
            [0, 0, 0, 0, 0, 0, 0, 3 * p[3]],
        ]
        return _from_lower(rows, 8) / 3.0
    if n == 4:
        # The published table carries a plain p_2 in the six two-excitation
        # rows, which breaks trace normalization (the two-excitation level
        # has 6 permutations, not 4); the defining mixture puts p_2/6 there,
        # i.e. 2 p_2 / 3 in units of the overall 1/4.
        q = 2.0 * p[2] / 3.0
        rows = [
            [4 * p[0]],
            [0, p[1]],
            [0, p[1], p[1]],
            [0, 0, 0, q],
            [0, p[1], p[1], 0, p[1]],
            [0, 0, 0, q, 0, q],
            [0, 0, 0, q, 0, q, q],
            [0, 0, 0, 0, 0, 0, 0, p[3]],
            [0, p[1], p[1], 0, p[1], 0, 0, 0, p[1]],
            [0, 0, 0, q, 0, q, q, 0, 0, q],
            [0, 0, 0, q, 0, q, q, 0, 0, q, q],
            [0, 0, 0, 0, 0, 0, 0, p[3], 0, 0, 0, p[3]],
            [0, 0, 0, q, 0, q, q, 0, 0, q, q, 0, q],
            [0, 0, 0, 0, 0, 0, 0, p[3], 0, 0, 0, p[3], 0, p[3]],
            [0, 0, 0, 0, 0, 0, 0, p[3], 0, 0, 0, p[3], 0, p[3], p[3]],
            [0] * 15 + [4 * p[4]],
        ]
        return _from_lower(rows, 16) / 4.0
    raise ValueError("reference matrices exist for n in {2, 3, 4}")


def dicke_norm_closed(n: int, g: float) -> float:
    """Closed-form trace normalization D_N of the driven steady state."""
    if n == 2:
        return 4.0 * (1 + g ** 2 + g ** 4)
    if n == 3:
        return 4.0 * (2 + 3 * g ** 2 + 6 * g ** 4 + 9 * g ** 6)
    if n == 4:
        return 16.0 * (1 + 2 * g ** 2 + 6 * g ** 4 + 18 * g ** 6 + 36 * g ** 8)
    raise ValueError("closed-form normalizations exist for n in {2, 3, 4}")


def dicke_reference(n: int, g: float) -> np.ndarray:
    """Driven steady state for N = 2, 3, 4 from the explicit tables."""
    i = 1j

    def G(k):
        return 1 + k * g ** 2

    if n == 2:
        rows = [
            [1],
            [g * i, G(1)],
            [g * i, g ** 2, G(1)],
            [-2 * g ** 2, g * i * G(2), g * i * G(2), 4 * g ** 4 + G(2)],
        ]
        return _from_lower(rows, 4) / dicke_norm_closed(2, g)
    if n == 3:
        rows = [
            [1],
            [g * i, G(1)],
            [g * i, g ** 2, G(1)],
            [-2 * g ** 2, g * i * G(2), g * i * G(2), 4 * g ** 4 + G(2)],
            [g * i, g ** 2, g ** 2, -2 * g ** 3 * i, G(1)],
            [-2 * g ** 2, g * i * G(2), 2 * g ** 3 * i, g ** 2 * G(4), g * i * G(2), 4 * g ** 4 + G(2)],
            [-2 * g ** 2, 2 * g ** 3 * i, g * i * G(2), g ** 2 * G(4), g * i * G(2), g ** 2 * G(4), 4 * g ** 4 + G(2)],
            [-6 * g ** 3 * i, -2 * g ** 2 * G(3), -2 * g ** 2 * G(3), g * i * (12 * g ** 4 + G(4)),
             -2 * g ** 2 * G(3), g * i * (12 * g ** 4 + G(4)), g * i * (12 * g ** 4 + G(4)), (1 + 12 * g ** 4) * G(3)],
        ]
        return _from_lower(rows, 8) / dicke_norm_closed(3, g)
    if n == 4:
        c21 = g * i                               # one-flip coherence
        c22 = g ** 2
        c41 = -2 * g ** 2
        c42 = g * i * G(2)
        c43 = 2 * g ** 3 * i
        c44 = g ** 2 * G(4)
        c81 = -6 * g ** 3 * i
        c82 = -2 * g ** 2 * G(3)
        c84 = g * i * (12 * g ** 4 + G(4))
        d1 = G(1)
        d2 = 4 * g ** 4 + G(2)
        d3 = (1 + 12 * g ** 4) * G(3)
        e1 = -6 * g ** 4
        e2 = 4 * g ** 4
        e3 = -2 * i * g ** 3 * G(6)
        e4 = g ** 2 * (36 * g ** 4 + G(8))
        f1 = 24 * g ** 4
        f2 = -6 * i * g ** 3 * G(4)
        f3 = -2 * g ** 2 * (24 * g ** 4 + G(6))
        f4 = i * g * (G(6) + 36 * g ** 4 * G(4))
        d4 = 24 * g ** 4 + (1 + 144 * g ** 6) * G(4)
        rows = [
            [1],
            [c21, d1],
            [c21, c22, d1],
            [c41, c42, c42, d2],
            [c21, c22, c22, -c43, d1],
            [c41, c42, c43, c44, c42, d2],
            [c41, c43, c42, c44, c42, c44, d2],
            [c81, c82, c82, c84, c82, c84, c84, d3],
            [c21, c22, c22, -c43, c22, -c43, -c43, e1],
            [c41, c42, c43, c44, c43, c44, e2, e3],
            [c41, c43, c42, c44, c43, e2, c44, e3],
            [c81, c82, c82, c84, e1, -e3, -e3, e4],
            [c41, c43, c43, e2, c42, c44, c44, e3],
            [c81, c82, e1, -e3, c82, c84, -e3, e4],
            [c81, e1, c82, -e3, c82, -e3, c84, e4],
            [f1, f2, f2, f3, f2, f3, f3, f4],
        ]
        tail = [
            [d1],
            [c42, d2],
            [c42, c44, d2],
            [c82, c84, c84, d3],
            [c42, c44, c44, e3, d2],
            [c82, c84, -e3, e4, c84, d3],
            [c82, -e3, c84, e4, c84, e4, d3],
            [f2, f3, f3, f4, f3, f4, f4, d4],
        ]
        rows[8:] = [row + more for row, more in zip(rows[8:], tail)]
        return _from_lower(rows, 16) / dicke_norm_closed(4, g)
    raise ValueError("reference matrices exist for n in {2, 3, 4}")
