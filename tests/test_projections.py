"""Flux-matching projection, the inverse of the discrete derivative on the
mean-zero subspace, and the composed construction that intertwines the
high-order operators."""

import numpy as np
import pytest

from rkdg_lab import (
    DGFunction,
    Mesh1D,
    assemble_d_theta,
    assemble_high_order_lh,
    commuting_defect,
    composed_projection,
    d_theta_inverse_apply,
    d_theta_inverse_norm,
    make_mean_zero,
    mean_value,
    pi_theta,
    project_l2,
)
from conftest import mixed_smooth, random_dg, sine_smooth


def quad_moments(w, mesh, degree, npts=12):
    """Cell moments of a callable against the scaled Legendre basis, by
    fine Gauss quadrature."""
    from rkdg_lab import gauss_rule, legendre_table

    xi, wq = gauss_rule(npts)
    pts, wts = mesh.quad_points(npts)
    tab = legendre_table(degree, xi)[0]
    scale = np.sqrt((2.0 * np.arange(degree + 1)[None, :] + 1.0) / mesh.widths[:, None])
    vals = w(pts)
    return np.einsum("jq,mq->jm", wts * vals, tab) * scale


# ---------------------------------------------------------------------------
# pi_theta: moments plus flux interpolation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "theta,degree,n_cells",
    [
        pytest.param(1.0, 1, 10, id="1.0-1"),
        pytest.param(0.75, 2, 10, id="0.75-2"),
        pytest.param(0.0, 2, 10, id="0.0-2"),
        pytest.param(0.3, 3, 10, id="0.3-3"),
        (0.75, 2, 2),
        (0.3, 3, 3),
    ],
)
def test_pi_theta_defining_conditions(theta, degree, n_cells):
    mesh = Mesh1D.perturbed(n_cells, rel=0.2, seed=2)
    w = lambda x: np.sin(x) + 0.3 * np.cos(2.0 * x)
    g = pi_theta(w, mesh, degree, theta, npts=degree + 10)

    # moments against P^{k-1} match the target function
    target = quad_moments(w, mesh, degree, npts=degree + 10)
    np.testing.assert_allclose(
        g.coeffs[:, :degree], target[:, :degree], atol=1e-11
    )
    # the theta-weighted trace interpolates w at every interface
    minus, plus = g.interface_values()
    np.testing.assert_allclose(
        theta * minus + (1.0 - theta) * plus, w(mesh.interfaces), atol=1e-11
    )


@pytest.mark.parametrize("degree", [2, 3])
def test_pi_theta_reproduces_dg_representable_data(degree):
    """A global quadratic whose endpoint values match across the seam is
    in the DG space, so it is its own projection."""
    mesh = Mesh1D.uniform(8)
    length = mesh.length
    # p(a) == p(b) so the interface conditions are consistent at the seam
    p = lambda x: (x - 0.5 * length) ** 2
    g = pi_theta(p, mesh, degree, 0.8, npts=12)
    ref = project_l2(p, mesh, degree, npts=12)
    np.testing.assert_allclose(g.coeffs, ref.coeffs, atol=1e-10)


def test_pi_theta_rejects_central_parameter():
    mesh = Mesh1D.uniform(8)
    with pytest.raises(ValueError):
        pi_theta(np.sin, mesh, 1, 0.5)


def test_pi_theta_commutes_with_discrete_derivative():
    """D_theta (pi_theta w) equals the plain projection of w'; this single
    identity is why the composed construction below terminates."""
    w = sine_smooth()
    for mesh, k, th in [
        (Mesh1D.uniform(12), 1, 1.0),
        (Mesh1D.perturbed(14, rel=0.25, seed=5), 2, 0.7),
    ]:
        g = pi_theta(w, mesh, k, th, npts=k + 10)
        dop = assemble_d_theta(mesh, k, th)
        rhs = project_l2(w.deriv(1), mesh, k, npts=k + 10)
        defect = np.linalg.norm(dop.apply(g.vector) - rhs.vector)
        assert defect <= 1e-10 * max(1.0, np.linalg.norm(rhs.vector))


# ---------------------------------------------------------------------------
# Inverse of D_theta on the mean-zero subspace
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("theta", [1.0, 0.75, 0.25])
def test_inverse_round_trips(theta):
    mesh = Mesh1D.perturbed(12, rel=0.2, seed=7)
    rng = np.random.default_rng(13)
    dop = assemble_d_theta(mesh, 2, theta)

    # right inverse: D (D^{-1} z) = z for mean-zero z in the range
    z = make_mean_zero(
        DGFunction.from_vector(mesh, 2, dop.apply(random_dg(mesh, 2, rng).vector))
    )
    x = d_theta_inverse_apply(theta, z)
    assert np.linalg.norm(dop.apply(x.vector) - z.vector) <= 1e-10 * np.linalg.norm(z.vector)
    assert abs(x.function.integral()) <= 1e-11 * max(1.0, x.norm())

    # left inverse: D^{-1} (D u) = u for mean-zero u
    u0 = make_mean_zero(random_dg(mesh, 2, rng))
    image = make_mean_zero(DGFunction.from_vector(mesh, 2, dop.apply(u0.vector)))
    back = d_theta_inverse_apply(theta, image)
    assert np.linalg.norm(back.vector - u0.vector) <= 1e-9 * np.linalg.norm(u0.vector)


def test_make_mean_zero_subtracts_the_mean():
    rng = np.random.default_rng(4)
    u = random_dg(Mesh1D.uniform(9), 1, rng)
    z = make_mean_zero(u)
    assert abs(z.function.mean()) < 1e-13
    assert abs(z.norm() - z.function.norm()) < 1e-13
    np.testing.assert_allclose(z.vector, z.function.vector, atol=0)


@pytest.mark.parametrize("theta", [0.75, 1.0])
def test_inverse_norm_matches_pseudoinverse(theta):
    """The norm of the restricted inverse is one over the smallest nonzero
    singular value of the full operator (its kernel is the constants)."""
    mesh = Mesh1D.perturbed(10, rel=0.15, seed=3)
    dop = assemble_d_theta(mesh, 1, theta)
    sing = np.linalg.svd(dop.dense(), compute_uv=False)
    assert sing[-1] < 1e-12  # one-dimensional kernel
    ref = 1.0 / sing[-2]
    np.testing.assert_allclose(d_theta_inverse_norm(mesh, 1, theta), ref, rtol=1e-9)


def test_inverse_norm_is_flat_under_refinement():
    kappas = [d_theta_inverse_norm(Mesh1D.uniform(n), 1, 0.75) for n in (16, 32, 64)]
    assert max(kappas) <= 2.0 * min(kappas)


# ---------------------------------------------------------------------------
# Composed projection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "q,beta,theta0,thetas,variant",
    [
        (1, -1.0, 1.0, (), "direct"),
        (2, 1.0, 1.0, (1.0,), "direct"),
        (2, 1.0, 1.0, (1.0,), "reduced"),
        (3, -1.0, 1.0, (1.0,), "direct"),
        (3, -1.0, 1.0, (0.75,), "reduced"),
    ],
)
def test_composed_projection_intertwines_operator(q, beta, theta0, thetas, variant):
    w = mixed_smooth()
    for mesh in (Mesh1D.uniform(12), Mesh1D.perturbed(10, rel=0.2, seed=11)):
        k = 2
        proj = composed_projection(
            w, mesh, k, q, theta0=theta0, thetas=thetas, variant=variant, npts=k + 8
        )
        op = assemble_high_order_lh(mesh, k, q, beta, theta0=theta0, thetas=thetas)
        action = lambda x: beta * w.deriv(q)(x)
        assert commuting_defect(op, proj, action, npts=k + 8) <= 1e-9
        # the mean of the data survives the construction
        assert abs(proj.mean() - mean_value(w, mesh, npts=k + 8)) <= 1e-12


def test_composed_projection_of_first_order_is_flux_projection():
    """For q = 1 the construction must collapse to pi_theta itself."""
    w = sine_smooth()
    mesh = Mesh1D.perturbed(9, rel=0.2, seed=19)
    a = composed_projection(w, mesh, 2, 1, theta0=1.0, npts=10)
    b = pi_theta(w, mesh, 2, 1.0, npts=10)
    assert np.linalg.norm(a.vector - b.vector) <= 1e-8 * np.linalg.norm(b.vector)


def test_commuting_defect_detects_mismatched_flux():
    """Projecting for one flux family and applying another leaves an O(1)
    defect, so the zero readings above are not vacuous."""
    w = sine_smooth()
    mesh = Mesh1D.uniform(12)
    proj = composed_projection(w, mesh, 2, 1, theta0=1.0, npts=10)
    wrong = assemble_high_order_lh(mesh, 2, 1, -1.0, theta0=0.75)
    action = lambda x: -w.deriv(1)(x)
    assert commuting_defect(wrong, proj, action, npts=10) > 1e-4
