"""Fourier truncation, mode-diagonal symbol operators, and the closed-form
coefficient families used by the resolution studies.

mpmath integrates the analytic profile directly; the geometric tail sum
gives the truncation error in closed form.
"""

import mpmath
import numpy as np
import pytest

from rkdg_lab import (
    FourierFunction,
    SymbolOperator,
    analytic_profile,
    fourier_truncate,
    grid_l2_error,
    skewness_defect,
)
from rkdg_lab.spectral import analytic_profile_coefficient, evaluate_on_grid, wavenumbers

RATIO = 2.0 - np.sqrt(3.0)  # decay ratio of the analytic profile's modes


# ---------------------------------------------------------------------------
# Coefficient families
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
def test_analytic_profile_coefficient_against_quadrature(n):
    """a_n = (1 / 2 pi) int f(x) exp(-i n x) dx for f = 1 / (2 + cos x)."""
    mpmath.mp.dps = 30
    f = lambda x: mpmath.exp(-1j * n * x) / (2 + mpmath.cos(x))
    ref = complex(mpmath.quad(f, mpmath.linspace(0, 2 * mpmath.pi, 7))) / (2.0 * np.pi)
    got = complex(analytic_profile_coefficient(n))
    assert abs(got - ref) < 1e-13
    closed = (-1.0) ** n * RATIO ** abs(n) / np.sqrt(3.0)
    assert abs(got - closed) < 1e-15


def test_truncation_recovers_analytic_coefficients():
    u = fourier_truncate(analytic_profile, 12)
    k = wavenumbers(12)
    ref = np.array([analytic_profile_coefficient(int(n)) for n in k], dtype=complex)
    np.testing.assert_allclose(u.coeffs[:, 0], ref, atol=1e-12)


# ---------------------------------------------------------------------------
# Norms and truncation error
# ---------------------------------------------------------------------------


def test_norm_matches_grid_quadrature():
    """Parseval on the torus: |u|^2 = 2 pi sum |a_k|^2, which the uniform
    grid sum reproduces exactly for a trigonometric polynomial."""
    rng = np.random.default_rng(12)
    coeffs = rng.standard_normal((9, 1)) + 1j * rng.standard_normal((9, 1))
    u = FourierFunction(n_max=4, dim=1, coeffs=coeffs)
    vals = evaluate_on_grid(u, 64)
    quad = np.sqrt(2.0 * np.pi * np.mean(np.abs(vals) ** 2))
    np.testing.assert_allclose(u.norm(), quad, rtol=1e-12)


@pytest.mark.parametrize("n_max", [6, 10])
def test_truncation_error_matches_geometric_tail(n_max):
    """|f - f_N|^2 = 2 pi (2 / 3) r^(2 N + 2) / (1 - r^2) for the analytic
    profile, summing both tails of the two-sided spectrum."""
    u = fourier_truncate(analytic_profile, n_max)
    err = grid_l2_error(u, analytic_profile)
    tail = 2.0 * np.pi * (2.0 / 3.0) * RATIO ** (2 * n_max + 2) / (1.0 - RATIO ** 2)
    np.testing.assert_allclose(err, np.sqrt(tail), rtol=1e-4)


def test_band_limited_truncation_is_exact():
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    k = wavenumbers(3)

    def f(x):
        return np.sum(coeffs[:, None] * np.exp(1j * np.outer(k, x)), axis=0)

    u = fourier_truncate(f, 3)
    np.testing.assert_allclose(u.coeffs[:, 0], coeffs, atol=1e-13)


# ---------------------------------------------------------------------------
# Symbol operators
# ---------------------------------------------------------------------------


def test_symbol_apply_matches_mode_by_mode_product():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    op = SymbolOperator(n_max=5, dim=1, a_matrices=(a,))
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal((11, 2)) + 1j * rng.standard_normal((11, 2))
    got = op.apply(coeffs)
    k = wavenumbers(5)
    ref = np.empty_like(coeffs)
    for i, n in enumerate(k):
        ref[i] = -1j * float(n) * (a @ coeffs[i])
    np.testing.assert_allclose(got, ref, atol=1e-14)


def test_symbol_norm_closed_form():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])  # eigenvalues +-1
    op = SymbolOperator(n_max=7, dim=1, a_matrices=(a,))
    assert op.norm() == pytest.approx(7.0, rel=1e-13)
    # two anticommuting symbols: |k1 A1 + k2 A2| = sqrt(k1^2 + k2^2)
    b = np.array([[1.0, 0.0], [0.0, -1.0]])
    op2 = SymbolOperator(n_max=4, dim=2, a_matrices=(a, b))
    assert op2.norm() == pytest.approx(4.0 * np.sqrt(2.0), rel=1e-12)


def test_symbol_operator_rejects_bad_coefficient_matrices():
    asym = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        SymbolOperator(n_max=3, dim=1, a_matrices=(asym,))
    good = np.eye(2)
    with pytest.raises(ValueError):
        SymbolOperator(n_max=3, dim=2, a_matrices=(good,))


def test_skewness_defect_vanishes_for_symmetric_symbols():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    op = SymbolOperator(n_max=6, dim=1, a_matrices=(a,))
    rng = np.random.default_rng(4)
    coeffs = rng.standard_normal((13, 2)) + 1j * rng.standard_normal((13, 2))
    u = FourierFunction(n_max=6, dim=1, coeffs=coeffs)
    assert skewness_defect(op, u) < 1e-13


def test_symbol_operator_uses_every_coefficient_matrix():
    """At dim 3 the symbol of mode (k1, k2, k3) is -i (k1 A1 + k2 A2 + k3 A3)."""
    a1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    a2 = np.array([[1.0, 0.0], [0.0, -1.0]])
    a3 = np.array([[2.0, 0.5], [0.5, 3.0]])
    op = SymbolOperator(n_max=2, dim=3, a_matrices=(a1, a2, a3))
    assert op.symbols.shape == (5, 5, 5, 2, 2)
    k = wavenumbers(2)
    for i1, k1 in enumerate(k):
        for i2, k2 in enumerate(k):
            for i3, k3 in enumerate(k):
                ref = -1j * (k1 * a1 + k2 * a2 + k3 * a3)
                np.testing.assert_allclose(op.symbols[i1, i2, i3], ref, atol=1e-14)


def test_two_dimensional_truncation_synthesis_and_error():
    """f = sin(x1 + 2 x2) + 0.4 cos(x2) has four nonzero modes: -i/2 at
    (1, 2), i/2 at (-1, -2) and 0.2 at (0, +-1)."""

    def f(x1, x2):
        return np.sin(x1 + 2.0 * x2) + 0.4 * np.cos(x2)

    u = fourier_truncate(f, 3, dim=2)
    assert u.coeffs.shape == (7, 7, 1)
    ref = np.zeros((7, 7), dtype=complex)
    ref[3 + 1, 3 + 2] = -0.5j
    ref[3 - 1, 3 - 2] = 0.5j
    ref[3, 3 + 1] = ref[3, 3 - 1] = 0.2
    np.testing.assert_allclose(u.coeffs[..., 0], ref, rtol=0, atol=1e-14)

    x = 2.0 * np.pi * np.arange(16) / 16
    xx, yy = np.meshgrid(x, x, indexing="ij")
    vals = evaluate_on_grid(u, 16)
    assert vals.shape == (16, 16, 1)
    np.testing.assert_allclose(vals[..., 0], f(xx, yy), rtol=0, atol=1e-13)
    assert grid_l2_error(u, f) < 1e-13
