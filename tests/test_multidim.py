"""Tensor-product spaces on Cartesian meshes: the per-direction operator
sum and the two-stage flux-matching projection.

Separable data is the oracle throughout. Outer products of 1D coefficient
arrays span the whole 2D space, so verifying the operator action on them
pins the assembled matrix and the vector layout at the same time.
"""

import numpy as np
import pytest

from rkdg_lab import (
    DGFunction2D,
    Mesh2D,
    assemble_advection_2d,
    assemble_d_theta,
    l2_error_2d,
    pi_tensor_2d,
    pi_theta,
    project_l2,
    project_l2_2d,
    semiboundedness_mu,
    tensor_projection_residuals,
)


def outer_function(mesh2, degree, g_dg, h_dg):
    """The 2D function with coefficients c[j1, j2, m1, m2] = g[j1, m1] h[j2, m2]."""
    coeffs = np.einsum("am,bn->abmn", g_dg.coeffs, h_dg.coeffs)
    return DGFunction2D(mesh2, degree, coeffs)


def test_vector_layout_round_trip():
    rng = np.random.default_rng(1)
    mesh2 = Mesh2D.uniform(4, 3)
    coeffs = rng.standard_normal((4, 3, 3, 3))
    u = DGFunction2D(mesh2, 2, coeffs)
    again = DGFunction2D.from_vector(mesh2, 2, u.vector)
    np.testing.assert_array_equal(again.coeffs, u.coeffs)
    assert abs(u.norm() - np.linalg.norm(u.vector)) < 1e-13


@pytest.mark.parametrize("degree", [1, 2])
def test_projection_of_separable_data_factorizes(degree):
    g = lambda x: np.sin(x)
    h = lambda x: np.cos(2.0 * x) + 0.3
    mesh2 = Mesh2D.uniform(6, 5)
    u = project_l2_2d(lambda x1, x2: g(x1) * h(x2), mesh2, degree, npts=degree + 4)
    g1 = project_l2(g, mesh2.mesh1, degree, npts=degree + 4)
    h1 = project_l2(h, mesh2.mesh2, degree, npts=degree + 4)
    ref = outer_function(mesh2, degree, g1, h1)
    np.testing.assert_allclose(u.coeffs, ref.coeffs, atol=1e-12)


def test_projection_reproduces_tensor_polynomials():
    mesh2 = Mesh2D.uniform(5, 4)
    f = lambda x1, x2: (1.0 + 0.5 * x1) * (2.0 - x2 + 0.1 * x2 ** 2)
    u = project_l2_2d(f, mesh2, 2, npts=6)
    assert l2_error_2d(u, f, npts=7) < 1e-11


@pytest.mark.parametrize("theta1,theta2", [(1.0, 1.0), (1.0, 0.75), (0.6, 1.3)])
def test_operator_action_on_separable_data(theta1, theta2):
    """L (g x h) = -(D1 g) x h - g x (D2 h), applied through the flat
    vector interface and checked against per-direction 1D operators."""
    degree = 2
    mesh2 = Mesh2D.uniform(5, 4)
    rng = np.random.default_rng(9)
    gc = rng.standard_normal((5, degree + 1))
    hc = rng.standard_normal((4, degree + 1))
    from rkdg_lab import DGFunction

    g = DGFunction(mesh2.mesh1, degree, gc)
    h = DGFunction(mesh2.mesh2, degree, hc)
    u = outer_function(mesh2, degree, g, h)

    op = assemble_advection_2d(mesh2, degree, theta1, theta2)
    got = DGFunction2D.from_vector(mesh2, degree, op.apply(u.vector))

    d1 = assemble_d_theta(mesh2.mesh1, degree, theta1)
    d2 = assemble_d_theta(mesh2.mesh2, degree, theta2)
    dg = DGFunction.from_vector(mesh2.mesh1, degree, d1.apply(g.vector))
    dh = DGFunction.from_vector(mesh2.mesh2, degree, d2.apply(h.vector))
    ref = -(
        np.einsum("am,bn->abmn", dg.coeffs, h.coeffs)
        + np.einsum("am,bn->abmn", g.coeffs, dh.coeffs)
    )
    np.testing.assert_allclose(got.coeffs, ref, atol=1e-12 * max(1.0, np.abs(ref).max()))


def test_operator_is_semibounded_for_upwind_weights():
    op = assemble_advection_2d(Mesh2D.uniform(6, 6), 1, 1.0, 0.75)
    assert semiboundedness_mu(op) <= 1e-10


def test_operator_rejects_downwind_weights():
    with pytest.raises(ValueError):
        assemble_advection_2d(Mesh2D.uniform(4, 4), 1, 0.4, 1.0)


@pytest.mark.parametrize("degree", [1, 2])
def test_tensor_projection_factorizes_on_separable_data(degree):
    """pi_tensor on g(x1) h(x2) is the outer product of the 1D projections."""
    g = lambda x: np.sin(x) + 0.2
    h = lambda x: np.cos(x)
    th1, th2 = 1.0, 0.75
    mesh2 = Mesh2D.uniform(6, 5)
    u = pi_tensor_2d(lambda x1, x2: g(x1) * h(x2), mesh2, degree, th1, th2, npts=degree + 6)
    g1 = pi_theta(g, mesh2.mesh1, degree, th1, npts=degree + 6)
    h1 = pi_theta(h, mesh2.mesh2, degree, th2, npts=degree + 6)
    ref = outer_function(mesh2, degree, g1, h1)
    np.testing.assert_allclose(u.coeffs, ref.coeffs, atol=1e-10)


def test_tensor_projection_residuals_sit_at_solver_precision():
    target = lambda x1, x2: np.sin(x1 + 2.0 * x2) + 0.4 * np.cos(x2)
    mesh2 = Mesh2D.uniform(6, 5)
    for k in (1, 2):
        u = pi_tensor_2d(target, mesh2, k, 1.0, 0.75, npts=k + 4)
        res = tensor_projection_residuals(u, target, 1.0, 0.75, npts=k + 4)
        assert set(res) == {"volume", "edge", "corner"}
        assert max(res.values()) <= 1e-10


@pytest.mark.parametrize("degree", [1, 2])
def test_tensor_projection_residuals_detect_each_broken_condition(degree):
    """Perturbing one coefficient of the projection breaks the conditions
    that coefficient enters: mode (0, 0) a volume moment, modes (0, k)
    and (k, 0) the edge moments and corner values but no volume moment,
    and mode (k, k) the corner values alone."""
    target = lambda x1, x2: np.sin(x1 + 2.0 * x2) + 0.4 * np.cos(x2)
    mesh2 = Mesh2D.uniform(6, 5)
    u = pi_tensor_2d(target, mesh2, degree, 1.0, 0.75)

    def residuals_after_bump(mode):
        coeffs = u.coeffs.copy()
        coeffs[2, 3][mode] += 1e-3
        return tensor_projection_residuals(DGFunction2D(mesh2, degree, coeffs), target, 1.0, 0.75)

    assert residuals_after_bump((0, 0))["volume"] > 1e-4
    for mode in ((0, degree), (degree, 0)):
        res = residuals_after_bump(mode)
        assert res["edge"] > 1e-4 and res["corner"] > 1e-4
        assert res["volume"] <= 1e-10
    res = residuals_after_bump((degree, degree))
    assert res["corner"] > 1e-4
    assert res["volume"] <= 1e-10 and res["edge"] <= 1e-10
