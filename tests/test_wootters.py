import numpy as np
import pytest

from gmx.lugroup import conjugate
from gmx.states import DensityMatrix, DickeParams, dicke_steady_state, pure_state, random_density_matrix
from gmx.wootters import (
    dicke2_closed_form,
    spin_flip_spectrum,
    verify_dicke2_equality,
    wootters_concurrence,
)
from gmx.xform import gm_lower_bound_x


def bell_state():
    return pure_state(2, np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_bell_state_is_maximally_entangled():
    assert wootters_concurrence(bell_state()) == pytest.approx(1.0, abs=1e-12)


def test_product_state_has_zero_concurrence():
    rho = pure_state(2, np.array([1, 0, 0, 0]))
    assert wootters_concurrence(rho) == pytest.approx(0.0, abs=1e-12)


def test_dicke2_closed_form_value():
    rho = dicke_steady_state(DickeParams(2, 2.0))
    assert wootters_concurrence(rho) == pytest.approx(1 / 14, abs=1e-12)
    assert dicke2_closed_form(2.0) == pytest.approx(1 / 14)


def test_spin_flip_spectrum_matches_closed_form():
    # eigenvalues of the spin-flip product for the driven steady state:
    # {(1 + 2 g^4 +- 2 g^2 sqrt(1 + g^4)) / D_2^2, 1/D_2^2, 1/D_2^2}
    for g in (0.3, 0.8, 1.3, 2.5):
        rho = dicke_steady_state(DickeParams(2, g))
        lam = spin_flip_spectrum(rho)
        d2 = 4 * (1 + g ** 2 + g ** 4)
        big = np.sqrt(1 + 2 * g ** 4 + 2 * g ** 2 * np.sqrt(1 + g ** 4)) / d2
        small = np.sqrt(max(0.0, 1 + 2 * g ** 4 - 2 * g ** 2 * np.sqrt(1 + g ** 4))) / d2
        expected = np.sort([big, 1 / d2, 1 / d2, small])[::-1]
        assert np.abs(lam - expected).max() < 1e-12


def test_wootters_invariant_under_local_unitaries():
    rng = np.random.default_rng(17)
    for seed in range(10):
        rho = random_density_matrix(2, (seed % 4) + 1, seed=seed)
        base = wootters_concurrence(rho)
        x = np.concatenate([rng.uniform(0, np.pi, 2), rng.uniform(0, 2 * np.pi, 2)])
        assert wootters_concurrence(conjugate(rho, x)) == pytest.approx(base, abs=1e-10)


def test_wootters_bounds():
    for seed in range(20):
        rho = random_density_matrix(2, (seed % 4) + 1, seed=100 + seed)
        c = wootters_concurrence(rho)
        assert 0.0 <= c <= 1.0
        assert c >= gm_lower_bound_x(rho) - 1e-10


def test_wootters_rejects_wrong_size():
    with pytest.raises(ValueError):
        wootters_concurrence(random_density_matrix(3, 2, seed=0))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_wootters_rejects_non_finite_entries(bad):
    rho = random_density_matrix(2, 2, seed=0)
    mat = rho.mat.copy()
    mat[1, 2] = mat[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite entries"):
        wootters_concurrence(DensityMatrix(2, mat))


def test_verify_dicke2_equality_grid():
    report = verify_dicke2_equality([0.0, 0.5, 1.0, 1.65, 2.0, 5.0])
    assert report.max_deviation < 1e-10


def test_verify_dicke2_equality_rejects_an_empty_grid():
    # The worst deviation over no gammas is undefined.
    with pytest.raises(ValueError, match="at least one gamma"):
        verify_dicke2_equality([])


def test_dicke2_zero_plateau_endpoint():
    # strictly inside the plateau both values clamp to exactly zero; at the
    # boundary gamma = 1 the score is mathematically zero and the clamp is
    # decided by 1-ulp rounding of the matrix product
    inside = verify_dicke2_equality([0.2, 0.6, 0.999])
    assert np.all(inside.c_wootters == 0.0)
    assert np.all(inside.c_x_bound == 0.0)
    edge = verify_dicke2_equality([1.0])
    assert abs(edge.c_wootters[0]) < 1e-14
    assert abs(edge.c_x_bound[0]) < 1e-14


def test_dicke2_large_gamma_asymptotics():
    g = 50.0
    report = verify_dicke2_equality([g])
    expected = 2 * (g ** 2 - 1) / (4 * (1 + g ** 2 + g ** 4))
    assert report.c_wootters[0] == pytest.approx(expected, abs=1e-12)
    assert report.c_wootters[0] < 1e-3  # decays toward zero
