"""Two-field operators: the alpha/beta wave fluxes, the energy-conserving
characteristic pair, and the central scheme on a primal/dual mesh pair."""

import numpy as np
import pytest

from rkdg_lab import (
    LinearOperator,
    Mesh1D,
    amplification_norm,
    assemble_central_advection,
    assemble_energy_conserving_pair,
    assemble_wave_alphabeta,
    dual_mesh,
    evolve,
    operator_norm,
    project_l2,
    quadratic_form,
    resolve_scheme,
    semiboundedness_mu,
    split_fields,
    stack_fields,
)
from conftest import random_dg


def skew_defect(op: LinearOperator) -> float:
    dense = op.dense()
    scale = max(1.0, np.abs(dense).max())
    return float(np.max(np.abs(dense + dense.T)) / scale)


# ---------------------------------------------------------------------------
# Wave system with alpha/beta fluxes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "alpha,beta1,beta2",
    [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.3, -0.4, -0.15), (-0.25, -0.05, -0.6)],
)
def test_wave_energy_identity(alpha, beta1, beta2):
    """<L V, V> = beta2 sum [w]^2 + beta1 sum [chi]^2; the alpha part of
    the flux is purely dispersive and drops out of the quadratic form."""
    mesh = Mesh1D.perturbed(11, rel=0.2, seed=6)
    degree = 2
    op = assemble_wave_alphabeta(mesh, degree, alpha, beta1, beta2)
    rng = np.random.default_rng(3)
    vec = rng.standard_normal(op.n)
    w, chi = split_fields(vec, [mesh, mesh], degree)
    expected = beta2 * np.sum(w.jumps() ** 2) + beta1 * np.sum(chi.jumps() ** 2)
    assert abs(quadratic_form(op, vec) - expected) < 1e-10
    assert semiboundedness_mu(op) <= 1e-10


def test_wave_central_flux_is_skew():
    op = assemble_wave_alphabeta(Mesh1D.uniform(10), 1, 0.0, 0.0, 0.0)
    assert skew_defect(op) < 1e-13


def test_wave_rejects_antidissipative_fluxes():
    mesh = Mesh1D.uniform(8)
    with pytest.raises(ValueError):
        assemble_wave_alphabeta(mesh, 1, 0.0, 0.1, 0.0)
    with pytest.raises(ValueError):
        assemble_wave_alphabeta(mesh, 1, 0.0, 0.0, 0.1)


# ---------------------------------------------------------------------------
# Energy-conserving characteristic pair
# ---------------------------------------------------------------------------


def test_conserving_pair_is_exactly_skew():
    mesh = Mesh1D.perturbed(12, rel=0.25, seed=4)
    op = assemble_energy_conserving_pair(mesh, 2)
    assert skew_defect(op) < 1e-13
    assert abs(semiboundedness_mu(op)) <= 1e-11


def test_conserving_pair_preserves_the_norm_in_time():
    mesh = Mesh1D.uniform(12)
    op = assemble_energy_conserving_pair(mesh, 1)
    w0 = project_l2(np.sin, mesh, 1)
    chi0 = project_l2(np.cos, mesh, 1)
    u0 = stack_fields(w0, chi0)
    rk4, tau = resolve_scheme("rk4"), 0.1 / operator_norm(op)
    res = evolve(op, u0, tau, 1.0, rk4)
    # the scheme is contractive on the imaginary axis, never amplifying:
    # neither the full step nor the short last one grows any state
    assert res.final_step < tau
    for h in (tau, res.final_step):
        assert amplification_norm(op, rk4, h) <= 1.0 + 1e-12
    assert np.linalg.norm(res.state) >= np.linalg.norm(u0) * (1.0 - 1e-4)


# ---------------------------------------------------------------------------
# Central scheme on the primal/dual pair
# ---------------------------------------------------------------------------


def l2_distance_squared(w, chi):
    """Integral of (w - chi)^2 over the period. The two functions live on
    staggered meshes, so each primal cell is split at its center (a dual
    boundary) and integrated half by half."""
    mesh = w.mesh
    xi, wq = np.polynomial.legendre.leggauss(2 * w.degree + 2)
    total = 0.0
    for j in range(mesh.n_cells):
        for lo, hi in (
            (mesh.boundaries[j], mesh.centers[j]),
            (mesh.centers[j], mesh.boundaries[j + 1]),
        ):
            pts = 0.5 * (lo + hi) + 0.5 * (hi - lo) * xi
            diff = w.evaluate(pts) - chi.evaluate(pts)
            total += 0.5 * (hi - lo) * np.sum(wq * diff ** 2)
    return total


def test_dual_mesh_connects_primal_centers():
    primal = Mesh1D.perturbed(9, rel=0.2, seed=8)
    dual = dual_mesh(primal)
    assert dual.n_cells == primal.n_cells
    np.testing.assert_allclose(dual.boundaries[:-1], primal.centers, rtol=1e-15)
    np.testing.assert_allclose(
        dual.boundaries[-1], primal.centers[0] + primal.length, rtol=1e-15
    )
    assert abs(dual.length - primal.length) < 1e-13


@pytest.mark.parametrize("degree", [1, 2])
def test_central_energy_is_relaxation_toward_the_other_copy(degree):
    """The transport part is skew, so the whole quadratic form reduces to
    -|w - chi|^2 / tau_max, measured here by split-cell quadrature."""
    primal = Mesh1D.uniform(10)
    tau_max = 0.37 * primal.h_min
    op, dual = assemble_central_advection(primal, degree, tau_max)
    rng = np.random.default_rng(5)
    w = random_dg(primal, degree, rng)
    chi = random_dg(dual, degree, rng)
    vec = stack_fields(w, chi)
    expected = -l2_distance_squared(w, chi) / tau_max
    got = quadratic_form(op, vec)
    assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))
    assert semiboundedness_mu(op) <= 1e-10


@pytest.mark.parametrize("n_cells", [8, 2, 3])
def test_central_transport_is_skew_without_relaxation(n_cells):
    primal = Mesh1D.uniform(n_cells)
    op, _ = assemble_central_advection(primal, 1, 1e30)
    assert skew_defect(op) < 1e-13


def test_central_returns_matching_dual_mesh():
    primal = Mesh1D.perturbed(7, rel=0.15, seed=2)
    _, dual = assemble_central_advection(primal, 1, 0.3 * primal.h_min)
    np.testing.assert_array_equal(dual.boundaries, dual_mesh(primal).boundaries)
    with pytest.raises(ValueError):
        assemble_central_advection(primal, 1, 0.0)


# ---------------------------------------------------------------------------
# Field packing
# ---------------------------------------------------------------------------


def test_stack_and_split_round_trip():
    rng = np.random.default_rng(14)
    primal = Mesh1D.uniform(6)
    dual = dual_mesh(primal)
    w = random_dg(primal, 2, rng)
    chi = random_dg(dual, 2, rng)
    vec = stack_fields(w, chi)
    assert vec.shape == (2 * 6 * 3,)
    w2, chi2 = split_fields(vec, [primal, dual], 2)
    np.testing.assert_array_equal(w2.coeffs, w.coeffs)
    np.testing.assert_array_equal(chi2.coeffs, chi.coeffs)
    np.testing.assert_array_equal(w2.mesh.boundaries, primal.boundaries)
    np.testing.assert_array_equal(chi2.mesh.boundaries, dual.boundaries)
