"""Independent checks on every estimate the workloads produce.

Each check returns a list of violation messages; an empty list means the
estimate passed.  The pure-state bound is computed here with plain numpy
partial traces, not with any gmx code: for a pure state the GM-concurrence
is min over bipartitions A|B of sqrt(2 (1 - tr rho_A^2)) (Ma et al.,
PRA 83, 062325 (2011)), so no lower bound may exceed it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from gmx.wootters import dicke2_closed_form, wootters_concurrence
from gmx.xform import gm_lower_bound_x

FLOOR_TOL = 1e-12
ORDER_TOL = 1e-6
UPPER_TOL = 1e-9
CLOSED_FORM_TOL = 1e-10


def pure_state_gm_concurrence(mat: np.ndarray, n: int) -> float:
    """min over bipartitions of sqrt(2 (1 - tr rho_A^2)) for a pure ``mat``."""
    tensor = mat.reshape((2,) * (2 * n))
    best = math.inf
    others = range(1, n)
    for size in range(0, n - 1):
        for rest in itertools.combinations(others, size):
            side_a = (0, *rest)
            side_b = tuple(q for q in range(n) if q not in side_a)
            order = side_a + side_b + tuple(n + q for q in side_a) + tuple(n + q for q in side_b)
            da, db = 2 ** len(side_a), 2 ** len(side_b)
            blocks = tensor.transpose(order).reshape(da, db, da, db)
            rho_a = np.einsum("ibjb->ij", blocks)
            purity = float(np.real(np.einsum("ij,ji->", rho_a, rho_a)))
            best = min(best, math.sqrt(max(0.0, 2.0 * (1.0 - purity))))
    return best


def check_estimate(name: str, value: float, rho, rank: int | None) -> list[str]:
    """Finite, within [X-projection floor, 1], below the exact two-qubit and pure-state values."""
    if not math.isfinite(value):
        return [f"{name} is not finite: {value!r}"]
    bad = []
    floor = gm_lower_bound_x(rho)
    if value < floor - FLOOR_TOL:
        bad.append(f"{name}={value!r} below the X-projection bound {floor!r}")
    if value > 1.0:
        bad.append(f"{name}={value!r} above 1")
    if rho.n_qubits == 2:
        exact = wootters_concurrence(rho)
        if value > exact + UPPER_TOL:
            bad.append(f"{name}={value!r} above the Wootters concurrence {exact!r}")
    if rank == 1:
        exact = pure_state_gm_concurrence(rho.mat, rho.n_qubits)
        if value > exact + UPPER_TOL:
            bad.append(f"{name}={value!r} above the pure-state GM-concurrence {exact!r}")
    return bad


def check_order(c_x: float, c_phi: float) -> list[str]:
    if c_x > c_phi + ORDER_TOL:
        return [f"c_x={c_x!r} exceeds c_phi={c_phi!r}"]
    return []


def check_driven_two_qubit(c_x: float, gamma: float) -> list[str]:
    """The two-qubit driven steady state has a closed-form concurrence, 0 for gamma <= 1."""
    bad = []
    exact = dicke2_closed_form(gamma)
    if abs(c_x - exact) > CLOSED_FORM_TOL:
        bad.append(f"c_x={c_x!r} differs from the closed form {exact!r} at gamma={gamma!r}")
    if gamma <= 1.0 and c_x != 0.0:
        bad.append(f"c_x={c_x!r} is not exactly 0 at gamma={gamma!r} <= 1")
    return bad
