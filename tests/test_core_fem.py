"""Meshes, the scaled Legendre basis, projections, and quadrature.

sympy and mpmath supply the reference values: exact Gauss nodes and
polynomial integrals, Legendre values at rational points, and high
precision integrals of transcendental profiles.
"""

import mpmath
import numpy as np
import pytest
import sympy

from rkdg_lab import (
    DGFunction,
    Mesh1D,
    SmoothFunction,
    gauss_rule,
    l2_error,
    legendre_table,
    mean_value,
    project_l2,
)
from conftest import random_dg

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# Quadrature and basis tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_gauss_rule_exact_on_odd_degree(n):
    """An n-point rule integrates monomials up to degree 2n - 1 exactly."""
    xi, w = gauss_rule(n)
    assert xi.shape == (n,) and w.shape == (n,)
    x = sympy.Symbol("x")
    for deg in range(2 * n):
        exact = float(sympy.integrate(x ** deg, (x, -1, 1)))
        approx = float(np.sum(w * xi ** deg))
        assert abs(approx - exact) < 1e-13, (n, deg)
    # weights sum to the interval length
    assert abs(np.sum(w) - 2.0) < 1e-14


def test_gauss_rule_rejects_empty_rule():
    with pytest.raises(ValueError):
        gauss_rule(0)


@pytest.mark.parametrize("degree", [0, 1, 3, 5])
def test_legendre_table_matches_sympy(degree):
    rng = np.random.default_rng(42)
    xi = rng.uniform(-1.0, 1.0, size=7)
    tab = legendre_table(degree, xi, nderiv=2)
    assert tab.shape == (3, degree + 1, 7)
    x = sympy.Symbol("x")
    for m in range(degree + 1):
        p = sympy.legendre(m, x)
        for d in range(3):
            ref = [float(sympy.diff(p, x, d).subs(x, v)) for v in xi]
            np.testing.assert_allclose(tab[d, m], ref, atol=1e-12)


# ---------------------------------------------------------------------------
# Meshes
# ---------------------------------------------------------------------------


def test_uniform_mesh_geometry():
    mesh = Mesh1D.uniform(10)
    assert mesh.n_cells == 10
    assert mesh.a == 0.0 and abs(mesh.b - TWO_PI) < 1e-15
    np.testing.assert_allclose(mesh.widths, TWO_PI / 10, rtol=1e-14)
    np.testing.assert_allclose(
        mesh.centers, (np.arange(10) + 0.5) * TWO_PI / 10, rtol=1e-14
    )
    np.testing.assert_allclose(mesh.interfaces, mesh.boundaries[1:], rtol=0)
    assert abs(mesh.h_max - mesh.h_min) < 1e-15


@pytest.mark.parametrize("rel", [0.1, 0.3])
def test_perturbed_mesh_stays_quasi_uniform(rel):
    mesh = Mesh1D.perturbed(20, rel=rel, seed=5)
    h = TWO_PI / 20
    assert mesh.boundaries[0] == 0.0
    assert abs(mesh.boundaries[-1] - TWO_PI) < 1e-15
    assert mesh.h_max <= (1.0 + rel) * h + 1e-14
    assert mesh.h_min >= (1.0 - rel) * h - 1e-14
    # same seed reproduces the mesh, another seed moves the boundaries
    again = Mesh1D.perturbed(20, rel=rel, seed=5)
    np.testing.assert_array_equal(mesh.boundaries, again.boundaries)
    other = Mesh1D.perturbed(20, rel=rel, seed=6)
    assert np.max(np.abs(other.boundaries - mesh.boundaries)) > 1e-6
    assert mesh.cache_token() != other.cache_token()


def test_perturbed_mesh_rejects_bad_amplitude():
    with pytest.raises(ValueError):
        Mesh1D.perturbed(8, rel=1.0)


def test_quad_points_integrate_area():
    mesh = Mesh1D.perturbed(9, rel=0.2, seed=1)
    pts, wts = mesh.quad_points(4)
    assert pts.shape == (9, 4)
    np.testing.assert_allclose(wts.sum(), mesh.length, rtol=1e-14)
    # integral of x over [0, 2 pi) through the cell rule
    np.testing.assert_allclose((wts * pts).sum(), 0.5 * TWO_PI ** 2, rtol=1e-13)


# ---------------------------------------------------------------------------
# DGFunction algebra and norms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_norm_is_parseval(degree):
    """The basis is orthonormal, so the L2 norm is the coefficient norm."""
    rng = np.random.default_rng(7 + degree)
    mesh = Mesh1D.perturbed(11, rel=0.25, seed=3)
    u = random_dg(mesh, degree, rng)
    assert abs(u.norm() - np.linalg.norm(u.vector)) < 1e-13
    # independent check through fine quadrature of u(x)^2
    pts, wts = mesh.quad_points(degree + 6)
    vals = u.evaluate(pts.ravel()).reshape(pts.shape)
    quad_norm = np.sqrt(np.sum(wts * vals ** 2))
    np.testing.assert_allclose(u.norm(), quad_norm, rtol=1e-12)


def test_integral_and_mean_against_mpmath():
    mesh = Mesh1D.perturbed(13, rel=0.2, seed=2)
    f = lambda x: np.exp(np.sin(x))
    u = project_l2(f, mesh, 2, npts=10)
    mpmath.mp.dps = 30
    exact = float(mpmath.quad(lambda t: mpmath.exp(mpmath.sin(t)), [0, 2 * mpmath.pi]))
    # cell averages are moments the projection preserves
    np.testing.assert_allclose(u.integral(), exact, rtol=1e-10)
    np.testing.assert_allclose(u.mean(), exact / TWO_PI, rtol=1e-10)
    np.testing.assert_allclose(mean_value(f, mesh, npts=12), exact / TWO_PI, rtol=1e-12)


def test_from_vector_round_trip():
    rng = np.random.default_rng(3)
    mesh = Mesh1D.uniform(5)
    u = random_dg(mesh, 3, rng)
    again = DGFunction.from_vector(mesh, 3, u.vector)
    np.testing.assert_array_equal(again.coeffs, u.coeffs)


# ---------------------------------------------------------------------------
# Traces, jumps, point evaluation
# ---------------------------------------------------------------------------


def test_traces_of_projected_constant():
    mesh = Mesh1D.perturbed(8, rel=0.3, seed=9)
    u = project_l2(lambda x: 3.5 * np.ones_like(x), mesh, 2)
    left, right = u.cell_traces()
    np.testing.assert_allclose(left, 3.5, rtol=1e-13)
    np.testing.assert_allclose(right, 3.5, rtol=1e-13)
    np.testing.assert_allclose(u.jumps(), 0.0, atol=1e-13)


def test_jump_and_average_definitions():
    """jumps = plus - minus, where minus is the trace from the lower cell
    at each interface."""
    rng = np.random.default_rng(11)
    mesh = Mesh1D.uniform(7)
    u = random_dg(mesh, 1, rng)
    minus, plus = u.interface_values()
    np.testing.assert_allclose(u.jumps(), plus - minus, atol=1e-15)
    # one-sided limits at the interfaces agree with the trace arrays
    x = mesh.interfaces[:-1]  # interior interfaces
    np.testing.assert_allclose(u.evaluate(x, side="minus"), minus[:-1], atol=1e-12)
    np.testing.assert_allclose(u.evaluate(x, side="plus"), plus[:-1], atol=1e-12)
    # the seam at b wraps to the first cell
    seam_plus = u.evaluate(np.array([mesh.b]), side="plus")
    np.testing.assert_allclose(seam_plus, plus[-1], atol=1e-12)


def test_evaluate_periodic_wrap_and_bad_side():
    mesh = Mesh1D.uniform(6)
    u = project_l2(np.sin, mesh, 3)
    x = np.array([0.3, 1.1, 2.0])
    np.testing.assert_allclose(u.evaluate(x + TWO_PI), u.evaluate(x), atol=1e-13)
    with pytest.raises(ValueError):
        u.evaluate(x, side="sideways")


# ---------------------------------------------------------------------------
# L2 projection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("degree", [1, 2, 4])
def test_projection_reproduces_polynomials(degree):
    """Projecting a global polynomial of matching degree is exact."""
    rng = np.random.default_rng(degree)
    coeffs = rng.uniform(-1.0, 1.0, size=degree + 1)
    poly = np.polynomial.Polynomial(coeffs)
    mesh = Mesh1D.perturbed(9, rel=0.15, seed=4)
    u = project_l2(poly, mesh, degree)
    assert l2_error(u, poly) < 1e-12 * max(1.0, u.norm())


def test_projection_is_orthogonal():
    """The residual f - Pf has no component in the DG space: projecting a
    smooth profile and re-projecting the pointwise residual gives zero."""
    mesh = Mesh1D.uniform(10)
    f = lambda x: np.exp(np.cos(x))
    u = project_l2(f, mesh, 2, npts=12)
    resid = project_l2(lambda x: f(x) - u.evaluate(x), mesh, 2, npts=12)
    assert resid.norm() < 1e-12


def test_projection_error_decays_at_design_order():
    f = np.sin
    errs = []
    for n in (8, 16, 32):
        u = project_l2(f, Mesh1D.uniform(n), 2)
        errs.append(l2_error(u, f))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    np.testing.assert_allclose(rates, 3.0, atol=0.1)


# ---------------------------------------------------------------------------
# SmoothFunction
# ---------------------------------------------------------------------------


def test_smooth_function_dispatch():
    f = SmoothFunction((np.sin, np.cos))
    x = np.linspace(0.0, 6.0, 5)
    np.testing.assert_array_equal(f(x), np.sin(x))
    np.testing.assert_array_equal(f.deriv(1)(x), np.cos(x))
    with pytest.raises(ValueError):
        f.deriv(2)
