"""First-order systems: the alpha-beta flux family for the wave system,
an energy-conserving two-field scheme, and a central scheme on
overlapping meshes.

State layout for the two-field operators is [w-coefficients,
chi-coefficients], each block cell-major as in the scalar case. The
central scheme stores [primal coefficients, dual coefficients].

Jump convention everywhere: [u] = u_plus - u_minus. The numerical
fluxes below are written against the opposite orientation of the jump
(minus minus plus), which is why beta enters the assembled blocks with
a positive sign and the energy identity reads

    <L V, V> = beta2 * sum [w]^2 + beta1 * sum [chi]^2,

so beta1, beta2 <= 0 is the dissipative regime and is enforced.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .core_fem import DGFunction, Mesh1D, _trace_vectors, gauss_rule, legendre_table
from .dg_ops1d import (
    LinearOperator,
    _block_stencil,
    _flux_stencil,
    _outer,
    assemble_d_theta,
    cell_layout,
)


def _jump_matrix(mesh: Mesh1D, degree: int) -> sp.csr_matrix:
    """Matrix of the interface form sum_i [u]_i [v]_i."""
    return _block_stencil(_flux_stencil(mesh, degree, -1.0, 1.0))


def assemble_wave_alphabeta(
    mesh: Mesh1D, degree: int, alpha: float, beta1: float, beta2: float
) -> LinearOperator:
    """Two-field wave system w_t = chi_x, chi_t = w_x with the two-
    parameter interface fluxes

        hat(w) = {w} + alpha [w] + beta1 [chi]
        hat(chi) = {chi} - alpha [chi] + beta2 [w]

    (jumps oriented minus minus plus in these formulas). The discrete
    energy obeys d/dt |V|^2 / 2 = beta2 sum [w]^2 + beta1 sum [chi]^2,
    so nonpositive beta1, beta2 are required. alpha is free; the
    accuracy of the pair is governed by alpha^2 + beta1 beta2.
    """
    if beta1 > 0 or beta2 > 0:
        raise ValueError(
            f"beta1 and beta2 must be <= 0 for a non-increasing energy, "
            f"got beta1={beta1:g}, beta2={beta2:g}"
        )
    # Each field's transport block is the DG derivative of the other field,
    # D_a = -(V + F(a, 1 - a)). The package jump orientation turns
    # {chi} - alpha [chi] into the weights (1/2 - alpha, 1/2 + alpha) on
    # (chi_minus, chi_plus), and {w} + alpha [w] into (1/2 + alpha, 1/2 - alpha).
    d_chi = assemble_d_theta(mesh, degree, 0.5 - alpha).mat
    d_w = assemble_d_theta(mesh, degree, 0.5 + alpha).mat
    g_jump = _jump_matrix(mesh, degree)
    mat = sp.bmat([[beta2 * g_jump, d_chi], [d_w, beta1 * g_jump]], format="csr")
    return LinearOperator(mat, layout=cell_layout(2, mesh.n_cells, degree))


def assemble_energy_conserving_pair(mesh: Mesh1D, degree: int) -> LinearOperator:
    """Decoupled-characteristics system U_t + (B U)_x = 0, B = diag(1, -1),
    with the conservative flux pair

        hat(w) = {w} + 1/2 [chi]
        hat(chi) = {chi} + 1/2 [w]

    (jumps again oriented minus minus plus). The assembled matrix is
    exactly skew-symmetric, so every trajectory conserves the discrete
    L2 norm; there is no dissipation to hide behind, which makes this
    the sharpest test of the fully discrete error machinery.
    """
    a = -assemble_d_theta(mesh, degree, 0.5).mat
    g_jump = _jump_matrix(mesh, degree)
    mat = sp.bmat([[a, -0.5 * g_jump], [0.5 * g_jump, -a]], format="csr")
    return LinearOperator(mat, layout=cell_layout(2, mesh.n_cells, degree))


def dual_mesh(primal: Mesh1D) -> Mesh1D:
    """Staggered companion mesh whose cells connect consecutive primal
    cell centers (the last cell wraps to the first center shifted by one
    period)."""
    centers = primal.centers
    return Mesh1D(np.concatenate([centers, [centers[0] + primal.length]]))


def assemble_central_advection(
    primal: Mesh1D, degree: int, tau_max: float
) -> tuple[LinearOperator, Mesh1D]:
    """Central scheme for u_t + u_x = 0 on a primal/dual mesh pair.

    Both copies of the solution evolve; each equation integrates the
    other copy by parts over its own cells, evaluating it at the cell
    endpoints where it is single-valued (they are interior points of
    the other mesh), and relaxes toward it at rate 1/tau_max:

        <w_t, v>_primal = <chi - w, v>/tau_max + <chi, v'> + sum chi(x_i) [v]
        <chi_t, psi>_dual = <w - chi, psi>/tau_max + <w, psi'> + sum w(x_j) [psi]

    The transport part is exactly skew and the relaxation contributes
    -|w - chi|^2 / tau_max to the energy. Returns the operator on the
    stacked state [w, chi] and the dual mesh.
    """
    if tau_max <= 0:
        raise ValueError("tau_max must be positive")
    dual = dual_mesh(primal)
    n_cells, k1 = primal.n_cells, degree + 1
    cells = np.arange(n_cells)
    bounds, centers = primal.boundaries, primal.centers
    xi, wts = gauss_rule(degree + 2)

    def eval_basis(mesh: Mesh1D, cell: np.ndarray, x: np.ndarray, nderiv: int = 0):
        """Scaled basis values (and derivatives) of cell[j] at the physical
        points x[j], shape (nderiv+1, n_cells, k+1, len(x[j]))."""
        h = mesh.widths[cell][:, None]
        xi_local = 2.0 * (x - mesh.centers[cell][:, None]) / h
        local = legendre_table(degree, xi_local.ravel(), nderiv)
        local = local.reshape((nderiv + 1, k1) + x.shape).transpose(0, 2, 1, 3)
        out = local * np.sqrt((2 * np.arange(k1) + 1.0) / h)[None, :, :, None]
        for d in range(1, nderiv + 1):
            out[d] *= (2.0 / h[:, :, None]) ** d
        return out

    def half_cells(test_mesh, trial_mesh, lo, hi, trial_cell, shift):
        """<trial, test> and <trial, test'> over [lo_j, hi_j] inside test
        cell j; the trial cell sees the points moved by shift_j, which is
        one period across the seam."""
        pts = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * xi
        w_phys = 0.5 * (hi - lo)[:, None] * wts
        test = eval_basis(test_mesh, cells, pts, nderiv=1)
        trial = eval_basis(trial_mesh, trial_cell, pts + shift[:, None])[0]
        return (
            np.einsum("jq,jaq,jbq->jab", w_phys, test[0], trial),
            np.einsum("jq,jaq,jbq->jab", w_phys, test[1], trial),
        )

    # Primal cell j splits at its center: the left half lies in dual cell
    # j-1, the right half in dual cell j. Dual cell j splits at the primal
    # interface x_{j+1/2}: the left half lies in primal cell j, the right
    # half in primal cell j+1.
    no_shift = np.zeros(n_cells)
    mass_lo, cross_pd_lo = half_cells(
        primal, dual, bounds[:-1], centers, np.roll(cells, 1),
        np.where(cells == 0, primal.length, 0.0),
    )
    mass_hi, cross_pd_hi = half_cells(primal, dual, centers, bounds[1:], cells, no_shift)
    _, cross_dp_lo = half_cells(dual, primal, dual.boundaries[:-1], bounds[1:], cells, no_shift)
    _, cross_dp_hi = half_cells(
        dual, primal, bounds[1:], dual.boundaries[1:], np.roll(cells, -1),
        np.where(cells == n_cells - 1, -primal.length, 0.0),
    )

    # Point terms: chi at the primal interfaces (inside dual cell j) times
    # the jump of v there, and w at the primal centers (the dual
    # interfaces) times the jump of psi there.
    left_p, right_p = _trace_vectors(primal, degree)
    left_d, right_d = _trace_vectors(dual, degree)
    chi_at = eval_basis(dual, cells, bounds[1:, None])[0, :, :, 0]
    w_at = eval_basis(primal, cells, centers[:, None])[0, :, :, 0]

    # The relaxation couples through the same half-cell mass blocks in
    # both directions, transposed for the dual rows.
    inv_tau = 1.0 / tau_max
    zero = np.zeros_like(mass_lo)
    primal_rows = _block_stencil(np.stack([
        inv_tau * mass_lo + cross_pd_lo + _outer(left_p, np.roll(chi_at, 1, axis=0)),
        inv_tau * mass_hi + cross_pd_hi - _outer(right_p, chi_at),
        zero,
    ]))
    dual_rows = _block_stencil(np.stack([
        zero,
        inv_tau * np.swapaxes(mass_hi, 1, 2) + cross_dp_lo + _outer(left_d, w_at),
        inv_tau * np.roll(np.swapaxes(mass_lo, 1, 2), -1, axis=0) + cross_dp_hi
        - _outer(right_d, np.roll(w_at, -1, axis=0)),
    ]))
    eye = sp.identity(n_cells * k1, format="csr")
    mat = sp.bmat([[-inv_tau * eye, primal_rows], [dual_rows, -inv_tau * eye]], format="csr")
    return LinearOperator(mat, layout=cell_layout(2, n_cells, degree)), dual


def stack_fields(*fields: DGFunction) -> np.ndarray:
    return np.concatenate([f.vector for f in fields])


def split_fields(vec: np.ndarray, meshes, degree: int) -> list[DGFunction]:
    out = []
    offset = 0
    for mesh in meshes:
        n = mesh.n_cells * (degree + 1)
        out.append(DGFunction.from_vector(mesh, degree, vec[offset : offset + n]))
        offset += n
    if offset != vec.size:
        raise ValueError("state vector length does not match the field layout")
    return out
