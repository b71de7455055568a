"""Tensor-product DG on periodic rectangles: Q^k spaces, the 2D
advection operator built from Kronecker products of 1D derivative
matrices, and the tensor-product flux-matching projection with its
a-posteriori characterization checks.

Coefficient layout: coeffs[j1, j2, m1, m2] multiplies
phi_{j1,m1}(x1) * phi_{j2,m2}(x2). The flattened vector groups the
direction-1 index (cell, mode) as the slow axis, so a Kronecker product
kron(A1, I) acts in direction 1 and kron(I, A2) in direction 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .core_fem import (
    Mesh1D,
    _basis_scale,
    _trace_vectors,
    gauss_rule,
    legendre_table,
)
from .dg_ops1d import LinearOperator, assemble_d_theta
from .projections import pi_theta_rhs, pi_theta_system


@dataclass(frozen=True)
class Mesh2D:
    mesh1: Mesh1D
    mesh2: Mesh1D

    @classmethod
    def uniform(cls, n1: int, n2: int, a: float = 0.0, b: float = 2.0 * np.pi) -> "Mesh2D":
        return cls(Mesh1D.uniform(n1, a, b), Mesh1D.uniform(n2, a, b))

    @property
    def n_cells(self) -> tuple[int, int]:
        return (self.mesh1.n_cells, self.mesh2.n_cells)


@dataclass(frozen=True)
class DGFunction2D:
    mesh: Mesh2D
    degree: int
    coeffs: np.ndarray  # (n1, n2, k+1, k+1)

    def __post_init__(self):
        n1, n2 = self.mesh.n_cells
        c = np.asarray(self.coeffs, dtype=float)
        k1 = self.degree + 1
        if c.shape != (n1, n2, k1, k1):
            raise ValueError(f"coefficients have shape {c.shape}, expected {(n1, n2, k1, k1)}")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def vector(self) -> np.ndarray:
        # (j1, m1) slow, (j2, m2) fast
        return self.coeffs.transpose(0, 2, 1, 3).reshape(-1)

    @classmethod
    def from_vector(cls, mesh: Mesh2D, degree: int, vec: np.ndarray) -> "DGFunction2D":
        n1, n2 = mesh.n_cells
        k1 = degree + 1
        c = np.asarray(vec, dtype=float).reshape(n1, k1, n2, k1).transpose(0, 2, 1, 3)
        return cls(mesh, degree, c)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def __sub__(self, other: "DGFunction2D") -> "DGFunction2D":
        return DGFunction2D(self.mesh, self.degree, self.coeffs - other.coeffs)


def _cell_tables(mesh: Mesh1D, degree: int, npts: int):
    """Quadrature points/weights and scaled basis values on every cell."""
    xi, w = gauss_rule(npts)
    pts, wts = mesh.quad_points(npts)
    ptab = legendre_table(degree, xi)[0]  # (k+1, npts), reference values
    scale = _basis_scale(mesh, degree)  # (n, k+1)
    # phi[j, m, q] = scaled basis value at quadrature node q of cell j
    phi = scale[:, :, None] * ptab[None, :, :]
    return pts, wts, phi


def project_l2_2d(f: Callable, mesh: Mesh2D, degree: int, npts: int | None = None) -> DGFunction2D:
    """Tensor-quadrature L2 projection; f takes (x1, x2) arrays."""
    npts = degree + 2 if npts is None else npts
    p1, w1, phi1 = _cell_tables(mesh.mesh1, degree, npts)
    p2, w2, phi2 = _cell_tables(mesh.mesh2, degree, npts)
    x1 = p1[:, None, :, None]
    x2 = p2[None, :, None, :]
    fv = f(np.broadcast_to(x1, x1.shape[:1] + x2.shape[1:2] + (npts, npts)).reshape(-1),
           np.broadcast_to(x2, x1.shape[:1] + x2.shape[1:2] + (npts, npts)).reshape(-1))
    n1, n2 = mesh.n_cells
    fv = np.asarray(fv, dtype=float).reshape(n1, n2, npts, npts)
    coeffs = np.einsum("abpq,ap,bq,amp,bnq->abmn", fv, w1, w2, phi1, phi2)
    return DGFunction2D(mesh, degree, coeffs)


def l2_error_2d(u: DGFunction2D, f: Callable, npts: int | None = None) -> float:
    npts = u.degree + 5 if npts is None else npts
    p1, w1, phi1 = _cell_tables(u.mesh.mesh1, u.degree, npts)
    p2, w2, phi2 = _cell_tables(u.mesh.mesh2, u.degree, npts)
    n1, n2 = u.mesh.n_cells
    uv = np.einsum("abmn,amp,bnq->abpq", u.coeffs, phi1, phi2)
    x1 = np.broadcast_to(p1[:, None, :, None], (n1, n2, npts, npts)).reshape(-1)
    x2 = np.broadcast_to(p2[None, :, None, :], (n1, n2, npts, npts)).reshape(-1)
    fv = np.asarray(f(x1, x2), dtype=float).reshape(n1, n2, npts, npts)
    wq = w1[:, None, :, None] * w2[None, :, None, :]
    return float(np.sqrt(np.sum(wq * (uv - fv) ** 2)))


def assemble_advection_2d(
    mesh: Mesh2D, degree: int, theta1: float, theta2: float
) -> LinearOperator:
    """Operator for u_t + u_x1 + u_x2 = 0 as
    -(kron(D_theta1, I) + kron(I, D_theta2)).

    theta >= 1/2 in both directions keeps <L v, v> <= 0 (each direction
    contributes -(theta - 1/2) times its squared edge jumps).
    """
    if theta1 < 0.5 or theta2 < 0.5:
        raise ValueError(
            f"upwind-weighted fluxes need theta >= 1/2 in both directions, "
            f"got ({theta1:g}, {theta2:g})"
        )
    a1 = assemble_d_theta(mesh.mesh1, degree, theta1).mat
    a2 = assemble_d_theta(mesh.mesh2, degree, theta2).mat
    n1 = a1.shape[0]
    n2 = a2.shape[0]
    mat = -(sp.kron(a1, sp.identity(n2), format="csr")
            + sp.kron(sp.identity(n1), a2, format="csr"))
    k1 = degree + 1
    layout = ((mesh.mesh1.n_cells, k1, mesh.mesh2.n_cells, k1), (0, 2))
    return LinearOperator(mat.tocsr(), label=f"adv2d[{theta1:g},{theta2:g}]", layout=layout)


def pi_tensor_2d(
    w: Callable,
    mesh: Mesh2D,
    degree: int,
    theta1: float,
    theta2: float,
    npts: int | None = None,
) -> DGFunction2D:
    """Tensor-product flux-matching projection, direction 1 first.

    Stage one solves the 1D flux-matching system on mesh1 for every
    direction-2 sample (quadrature nodes of every cell of mesh2 plus its
    interfaces) in one batched solve. Stage two reads the direction-2
    moments and interface values of the stage-one coefficient functions
    straight off those samples, then solves the mesh2 system per
    direction-1 unknown, again batched.
    """
    npts = degree + 2 if npts is None else npts
    m1, m2 = mesh.mesh1, mesh.mesh2
    n1, n2 = mesh.n_cells
    k1 = degree + 1

    mat1, lu1 = pi_theta_system(m1, degree, theta1)
    mat2, lu2 = pi_theta_system(m2, degree, theta2)

    p2, w2, phi2 = _cell_tables(m2, degree, npts)
    ys = np.concatenate([p2.reshape(-1), m2.interfaces])  # n2*npts + n2 samples
    n_ys = ys.size

    # Stage-one right-hand sides: for each y, moments over mesh1 cells and
    # values at mesh1 interfaces of x -> w(x, y).
    p1, w1, phi1 = _cell_tables(m1, degree, npts)
    xg = np.broadcast_to(p1.reshape(-1)[:, None], (n1 * npts, n_ys))
    yg = np.broadcast_to(ys[None, :], (n1 * npts, n_ys))
    wv = np.asarray(w(xg.reshape(-1), yg.reshape(-1)), dtype=float).reshape(n1, npts, n_ys)
    moments1 = np.einsum("apy,ap,amp->amy", wv, w1, phi1)  # (n1, k+1, n_ys)
    xi = np.broadcast_to(m1.interfaces[:, None], (n1, n_ys))
    yi = np.broadcast_to(ys[None, :], (n1, n_ys))
    ifc1 = np.asarray(w(xi.reshape(-1), yi.reshape(-1)), dtype=float).reshape(n1, n_ys)
    rhs1 = pi_theta_rhs(moments1, ifc1, degree)  # (n1*(k+1), n_ys)
    c1 = lu1.solve(rhs1)  # stage-one coefficients at every sample
    resid1 = np.linalg.norm(mat1 @ c1 - rhs1)
    if resid1 > 1e-10 * max(np.linalg.norm(rhs1), 1e-300):
        from .core_fem import NumericalError

        raise NumericalError(f"stage-one tensor projection residual {resid1:.3e}")

    # Stage two: each row of c1 is a function of y known at the sample set.
    g_quad = c1[:, : n2 * npts].reshape(n1 * k1, n2, npts)
    g_ifc = c1[:, n2 * npts :]  # (n1*(k+1), n2)
    moments2 = np.einsum("gbq,bq,bnq->bng", g_quad, w2, phi2)  # (n2, k+1, n1*(k+1))
    rhs2 = pi_theta_rhs(moments2, g_ifc.T, degree)  # (n2*(k+1), n1*(k+1))
    c2 = lu2.solve(rhs2)
    resid2 = np.linalg.norm(mat2 @ c2 - rhs2)
    if resid2 > 1e-10 * max(np.linalg.norm(rhs2), 1e-300):
        from .core_fem import NumericalError

        raise NumericalError(f"stage-two tensor projection residual {resid2:.3e}")

    coeffs = c2.reshape(n2, k1, n1, k1).transpose(2, 0, 3, 1)  # -> (j1, j2, m1, m2)
    return DGFunction2D(mesh, degree, coeffs)


def corner_flux_value(
    u: DGFunction2D, i1: int, i2: int, theta1: float, theta2: float
) -> float:
    """The doubly weighted corner value at vertex (i1, i2):
    theta-weighted combination of the four one-sided limits, weights
    theta for the minus side and 1 - theta for the plus side in each
    direction."""
    k1 = u.degree + 1
    m1, m2 = u.mesh.mesh1, u.mesh.mesh2
    left1, right1 = _trace_vectors(m1, u.degree)
    left2, right2 = _trace_vectors(m2, u.degree)
    c1m, c1p = i1, (i1 + 1) % m1.n_cells
    c2m, c2p = i2, (i2 + 1) % m2.n_cells
    val = 0.0
    for (cell1, tr1, wgt1) in ((c1m, right1[c1m], theta1), (c1p, left1[c1p], 1.0 - theta1)):
        for (cell2, tr2, wgt2) in ((c2m, right2[c2m], theta2), (c2p, left2[c2p], 1.0 - theta2)):
            val += wgt1 * wgt2 * float(tr1 @ u.coeffs[cell1, cell2] @ tr2)
    return val


def tensor_projection_residuals(
    u: DGFunction2D,
    w: Callable,
    theta1: float,
    theta2: float,
    npts: int | None = None,
) -> dict:
    """Maximum residuals of the three characterizing conditions of the
    tensor projection: volume moments against Q^{k-1}, weighted-trace
    edge moments against P^{k-1} on every edge, and the doubly weighted
    corner values. All should sit at solver precision when u was built
    from w with matching quadrature."""
    degree = u.degree
    npts = degree + 2 if npts is None else npts
    m1, m2 = u.mesh.mesh1, u.mesh.mesh2
    n1, n2 = u.mesh.n_cells
    k1 = degree + 1

    p1, w1, phi1 = _cell_tables(m1, degree, npts)
    p2, w2, phi2 = _cell_tables(m2, degree, npts)

    out = {}

    # Volume: <u - w, phi_m1 phi_m2> for m1, m2 <= k-1.
    if degree >= 1:
        uv = np.einsum("abmn,amp,bnq->abpq", u.coeffs, phi1, phi2)
        x1 = np.broadcast_to(p1[:, None, :, None], (n1, n2, npts, npts)).reshape(-1)
        x2 = np.broadcast_to(p2[None, :, None, :], (n1, n2, npts, npts)).reshape(-1)
        fv = np.asarray(w(x1, x2), dtype=float).reshape(n1, n2, npts, npts)
        defect = np.einsum(
            "abpq,ap,bq,amp,bnq->abmn", uv - fv, w1, w2, phi1, phi2
        )[:, :, :degree, :degree]
        out["volume"] = float(np.abs(defect).max())
    else:
        out["volume"] = 0.0

    # Direction-1 edges: the theta1-weighted trace of u at interface i1,
    # as a function of x2, must match w(x_i1, .) in P^{k-1} moments.
    left1, right1 = _trace_vectors(m1, degree)
    left2, right2 = _trace_vectors(m2, degree)
    edge_max = 0.0
    if degree >= 1:
        # weighted trace coefficients in direction 2: (n1_interfaces, n2, k+1)
        for (mesh_a, left_a, right_a, theta_a, swap) in (
            (m1, left1, right1, theta1, False),
            (m2, left2, right2, theta2, True),
        ):
            n_a = mesh_a.n_cells
            coeffs = u.coeffs if not swap else u.coeffs.transpose(1, 0, 3, 2)
            # coeffs now (cells_a, cells_b, modes_a, modes_b)
            tr = (
                theta_a * np.einsum("abmn,am->abn", coeffs, right_a)
                + (1.0 - theta_a)
                * np.einsum("abmn,am->abn", np.roll(coeffs, -1, axis=0), np.roll(left_a, -1, axis=0))
            )
            # moments of the trace against direction-b basis
            mesh_b = m2 if not swap else m1
            pb, wb, phib = _cell_tables(mesh_b, degree, npts)
            tr_vals = np.einsum("abn,bnq->abq", tr, phib)
            xa = mesh_a.interfaces
            xb = pb
            if not swap:
                wv = np.asarray(
                    w(
                        np.broadcast_to(xa[:, None, None], (n_a,) + pb.shape).reshape(-1),
                        np.broadcast_to(pb[None], (n_a,) + pb.shape).reshape(-1),
                    ),
                    dtype=float,
                ).reshape((n_a,) + pb.shape)
            else:
                wv = np.asarray(
                    w(
                        np.broadcast_to(pb[None], (n_a,) + pb.shape).reshape(-1),
                        np.broadcast_to(xa[:, None, None], (n_a,) + pb.shape).reshape(-1),
                    ),
                    dtype=float,
                ).reshape((n_a,) + pb.shape)
            defect = np.einsum("abq,bq,bnq->abn", tr_vals - wv, wb, phib)[:, :, :degree]
            edge_max = max(edge_max, float(np.abs(defect).max()))
    out["edge"] = edge_max

    # Corners: the doubly weighted value must equal w at every vertex.
    corner_max = 0.0
    for i1 in range(n1):
        for i2 in range(n2):
            val = corner_flux_value(u, i1, i2, theta1, theta2)
            exact = float(w(np.array([m1.interfaces[i1]]), np.array([m2.interfaces[i2]]))[0])
            corner_max = max(corner_max, abs(val - exact))
    out["corner"] = corner_max
    return out
