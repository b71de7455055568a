"""Projection toolkit: the flux-matching projection Pi_theta, the inverse
of the DG derivative on the mean-zero subspace, and the composed
projection that intertwines a composite operator with its continuous
counterpart, L_h (Pi w) = Pi_0 (L w), exactly at the discrete level.

Everything in this module works on a periodic mesh and assumes the flux
parameter is bounded away from 1/2 where an inverse or an interpolation-
type projection is requested; theta = 1/2 makes those problems singular
on meshes with an even number of cells, so it is rejected up front.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core_fem import (
    DGFunction,
    Mesh1D,
    NumericalError,
    SmoothFunction,
    _trace_vectors,
    mean_value,
    project_l2,
)
from .dg_ops1d import (
    LinearOperator,
    _block_stencil,
    assemble_d_theta,
    high_order_flux_sequence,
)

_HALF_THETA_REMEDY = (
    "theta = 1/2 makes the interface system singular on periodic meshes "
    "with an even cell count; use a one-sided parameter (for example "
    "theta = 0 or theta = 1) or perturb theta away from 1/2"
)


def _require_offcenter(theta: float) -> None:
    if theta == 0.5:
        raise ValueError(_HALF_THETA_REMEDY)


@dataclass(frozen=True)
class MeanZeroFunction:
    """A DGFunction certified to have zero integral.

    The constructor enforces |<u, 1>| <= max(1e-11 * |u|, 1e-13); use
    make_mean_zero to strip a nonzero mean explicitly.
    """

    function: DGFunction

    def __post_init__(self):
        integral = abs(self.function.integral())
        bound = max(1e-11 * self.function.norm(), 1e-13)
        if integral > bound:
            raise ValueError(
                f"function is not mean-zero: <u,1> = {integral:.3e} "
                f"exceeds {bound:.3e}; subtract the mean first"
            )

    @property
    def vector(self) -> np.ndarray:
        return self.function.vector

    def norm(self) -> float:
        return self.function.norm()


def make_mean_zero(u: DGFunction) -> MeanZeroFunction:
    """Subtract the mean (a constant has coefficients c * sqrt(h_j) in
    mode zero) and wrap the result."""
    c = u.coeffs.copy()
    c[:, 0] -= u.mean() * np.sqrt(u.mesh.widths)
    return MeanZeroFunction(DGFunction(u.mesh, u.degree, c))


# One factored flux-matching system per (mesh, degree, theta), reused by
# repeated 1D projections and by the batched solves of the tensor-product
# construction in the multidimensional module.
_PI_THETA_CACHE: dict = {}
_PI_THETA_LOCK = threading.Lock()


def pi_theta_system(mesh: Mesh1D, degree: int, theta: float):
    """Sparse matrix and LU factorization of the flux-matching system.

    Unknowns are coefficient-ordered. Row j*(k+1)+m is the moment
    equation c_{j,m} = <w, phi_{j,m}> for m < k; row j*(k+1)+k is the
    flux equation at interface j. Build the right-hand side with
    pi_theta_rhs and solve; the matrix does not depend on w.
    """
    _require_offcenter(theta)
    key = (mesh.cache_token(), degree, float(theta))
    with _PI_THETA_LOCK:
        hit = _PI_THETA_CACHE.get(key)
    if hit is not None:
        return hit
    left, right = _trace_vectors(mesh, degree)
    stencil = np.zeros((3,) + left.shape + (degree + 1,))
    stencil[1] = np.eye(degree + 1)
    stencil[1, :, degree] = theta * right
    stencil[2, :, degree] = (1.0 - theta) * np.roll(left, -1, axis=0)
    mat = _block_stencil(stencil).tocsc()
    try:
        lu = spla.splu(mat)
    except RuntimeError as exc:
        raise NumericalError(f"flux-matching projection system is singular: {exc}") from exc
    with _PI_THETA_LOCK:
        _PI_THETA_CACHE[key] = (mat, lu)
    return mat, lu


def _require_small_residual(mat, x: np.ndarray, rhs: np.ndarray, what: str) -> None:
    """Refuse a solve of mat x = rhs whose residual exceeds 1e-10 |rhs|."""
    resid = np.linalg.norm(mat @ x - rhs)
    if resid > 1e-10 * max(np.linalg.norm(rhs), 1e-300):
        raise NumericalError(f"{what} residual {resid:.3e} exceeds 1e-10 * |rhs|")


def pi_theta_rhs(moments: np.ndarray, interface_values: np.ndarray, degree: int) -> np.ndarray:
    """Pack per-cell moments (n_cells, >= degree) and per-interface data
    into the right-hand-side layout of pi_theta_system."""
    n_cells = moments.shape[0]
    k1 = degree + 1
    rhs = np.zeros((n_cells, k1) + moments.shape[2:])
    rhs[:, :degree] = moments[:, :degree]
    rhs[:, degree] = interface_values
    return rhs.reshape((n_cells * k1,) + moments.shape[2:])


def pi_theta(
    w: Callable,
    mesh: Mesh1D,
    degree: int,
    theta: float,
    npts: int | None = None,
) -> DGFunction:
    """Projection matching cell moments against P^{k-1} and the numerical
    flux at every interface.

    The projection g = pi_theta(w) satisfies, for every cell j and every
    interface i,

        <g, v>_j = <w, v>_j  for v in P^{k-1}(I_j)
        theta * g_minus + (1 - theta) * g_plus = w(x_i)

    The moment equations are local; the flux equations couple neighbours
    cyclically, so the whole thing is assembled as one sparse system and
    factored. A residual check guards the solve. w is evaluated directly
    at the interfaces, so the flux target is its exact point value.
    """
    mat, lu = pi_theta_system(mesh, degree, theta)
    npts = degree + 2 if npts is None else npts
    moments = project_l2(w, mesh, degree, npts=npts).coeffs
    w_at = np.asarray(w(mesh.interfaces), dtype=float)
    rhs = pi_theta_rhs(moments, w_at, degree)
    x = lu.solve(rhs)
    _require_small_residual(mat, x, rhs, "flux-matching projection")
    return DGFunction.from_vector(mesh, degree, x)


# One LU per (mesh, degree, theta); the factorization is reused both for
# repeated inverse applications and for the boundedness survey.
_SADDLE_CACHE: dict = {}
_SADDLE_LOCK = threading.Lock()


def _saddle_factor(mesh: Mesh1D, degree: int, theta: float):
    key = (mesh.cache_token(), degree, float(theta))
    with _SADDLE_LOCK:
        hit = _SADDLE_CACHE.get(key)
    if hit is not None:
        return hit
    a = assemble_d_theta(mesh, degree, theta).mat
    n = a.shape[0]
    m = np.zeros(n)
    m[:: degree + 1] = np.sqrt(mesh.widths)  # <e_{j,0}, 1> = sqrt(h_j)
    saddle = sp.bmat(
        [[a, m[:, None]], [m[None, :], None]], format="csc"
    )
    try:
        lu = spla.splu(saddle)
    except RuntimeError as exc:
        raise NumericalError(
            f"derivative inverse factorization failed for theta={theta:g}: {exc}"
        ) from exc
    with _SADDLE_LOCK:
        _SADDLE_CACHE[key] = (a, lu)
    return a, lu


def d_theta_inverse_apply(theta: float, z: MeanZeroFunction) -> MeanZeroFunction:
    """Solve D_theta x = z with <x, 1> = 0.

    D_theta annihilates constants and maps onto the mean-zero subspace,
    so the square system is singular; the mean constraint is imposed by
    one Lagrange multiplier, giving the bordered system

        [ D_theta  m ] [x]   [z]
        [ m^T      0 ] [s] = [0]

    with m the coefficient vector of the constant 1. The multiplier
    absorbs any (tiny) mean residue of z. Residual and mean-zero checks
    run after every solve; failures raise NumericalError rather than
    returning a silently wrong inverse.
    """
    _require_offcenter(theta)
    u = z.function
    a, lu = _saddle_factor(u.mesh, u.degree, theta)
    n = a.shape[0]
    rhs = np.zeros(n + 1)
    rhs[:n] = u.vector
    sol = lu.solve(rhs)
    x = sol[:n]
    _require_small_residual(a, x, rhs[:n], "derivative inverse")
    result = DGFunction.from_vector(u.mesh, u.degree, x)
    mean_resid = abs(result.integral())
    if mean_resid > 1e-11 * max(np.linalg.norm(x), 1e-300):
        raise NumericalError(
            f"derivative inverse lost the mean-zero constraint: <x,1> = {mean_resid:.3e}"
        )
    return MeanZeroFunction(result)


def d_theta_inverse_norm(mesh: Mesh1D, degree: int, theta: float) -> float:
    """Operator norm of the inverse restricted to the mean-zero subspace.

    Builds an orthonormal basis of that subspace, pushes it through the
    factored inverse, and takes the spectral norm of the image. Dense,
    intended for the boundedness survey at modest sizes.
    """
    _require_offcenter(theta)
    a, lu = _saddle_factor(mesh, degree, theta)
    n = a.shape[0]
    if n > 3000:
        raise ValueError("inverse-norm survey is dense-only; operator too large")
    m = np.zeros(n)
    m[:: degree + 1] = np.sqrt(mesh.widths)
    basis = scipy.linalg.null_space(m[None, :])  # (n, n-1), orthonormal
    rhs = np.zeros((n + 1, basis.shape[1]))
    rhs[:n] = basis
    sol = lu.solve(rhs)
    return float(np.linalg.norm(sol[:n], 2))


def composed_projection(
    w: SmoothFunction,
    mesh: Mesh1D,
    degree: int,
    q: int,
    theta0: float | None = None,
    thetas: tuple[float, ...] = (),
    variant: str = "direct",
    npts: int | None = None,
) -> DGFunction:
    """The projection Pi that intertwines the composite operator:
    assembling L_h with the same (q, theta0, thetas) gives
    L_h (Pi w) = Pi_0 (beta * d^q w / dx^q) exactly.

    Construction: project the q-th derivative, then undo the operator's
    first-order factors one inverse at a time, walking the factor list
    from the left; finally restore the mean of w, which every factor
    annihilates. All flux parameters along the chain must differ from
    1/2 for the inverses to exist.

    variant="reduced" (degree >= 1) replaces the first inverse by the
    flux-matching projection of the (q-1)-th derivative, using the
    identity D_theta^{-1} Pi_0 (g') = pi_theta(g) - mean(pi_theta(g)).
    """
    if variant not in ("direct", "reduced"):
        raise ValueError(f"unknown variant {variant!r}")
    seq = high_order_flux_sequence(q, theta0, tuple(thetas))
    for t in seq:
        _require_offcenter(t)
    npts = degree + 4 if npts is None else npts

    if variant == "reduced":
        if degree < 1:
            raise ValueError("the reduced construction needs degree >= 1")
        # First factor handled by flux matching; remaining chain unchanged.
        g = pi_theta(w.deriv(q - 1), mesh, degree, seq[0], npts=npts)
        z = make_mean_zero(g)
        remaining = seq[1:]
    else:
        z = make_mean_zero(project_l2(w.deriv(q), mesh, degree, npts=npts))
        remaining = seq

    for t in remaining:
        z = d_theta_inverse_apply(t, z)

    wbar = mean_value(w, mesh, npts=max(npts, degree + 5))
    c = z.function.coeffs.copy()
    c[:, 0] += wbar * np.sqrt(mesh.widths)
    return DGFunction(mesh, degree, c)


def commuting_defect(
    op: LinearOperator,
    projected: DGFunction,
    continuous_action: Callable,
    npts: int | None = None,
) -> float:
    """Relative size of L_h (projected) - Pi_0 (continuous action).

    continuous_action is the exact L applied to the underlying smooth
    function, as a plain callable. Returns |defect| / max(1, |Pi_0 L w|).
    """
    rhs = project_l2(
        continuous_action, projected.mesh, projected.degree,
        npts=npts if npts is not None else projected.degree + 4,
    )
    lhs = op.apply(projected.vector)
    return float(
        np.linalg.norm(lhs - rhs.vector) / max(1.0, np.linalg.norm(rhs.vector))
    )
