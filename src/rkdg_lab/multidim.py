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
from .projections import _require_small_residual, pi_theta_rhs, pi_theta_system


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


def _cell_tables(mesh: Mesh1D, degree: int, npts: int):
    """Quadrature points/weights and scaled basis values on every cell."""
    xi, w = gauss_rule(npts)
    pts, wts = mesh.quad_points(npts)
    ptab = legendre_table(degree, xi)[0]  # (k+1, npts), reference values
    scale = _basis_scale(mesh, degree)  # (n, k+1)
    # phi[j, m, q] = scaled basis value at quadrature node q of cell j
    phi = scale[:, :, None] * ptab[None, :, :]
    return pts, wts, phi


def _sample_2d(f: Callable, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """f on the tensor grid of per-cell points p1 (n1, q1) and p2 (n2, q2),
    shape (n1, n2, q1, q2). f takes flat (x1, x2) arrays."""
    shape = p1.shape[:1] + p2.shape[:1] + p1.shape[1:] + p2.shape[1:]
    x1 = np.broadcast_to(p1[:, None, :, None], shape).reshape(-1)
    x2 = np.broadcast_to(p2[None, :, None, :], shape).reshape(-1)
    return np.asarray(f(x1, x2), dtype=float).reshape(shape)


def project_l2_2d(f: Callable, mesh: Mesh2D, degree: int, npts: int | None = None) -> DGFunction2D:
    """Tensor-quadrature L2 projection; f takes (x1, x2) arrays."""
    npts = degree + 2 if npts is None else npts
    p1, w1, phi1 = _cell_tables(mesh.mesh1, degree, npts)
    p2, w2, phi2 = _cell_tables(mesh.mesh2, degree, npts)
    fv = _sample_2d(f, p1, p2)
    coeffs = np.einsum("abpq,ap,bq,amp,bnq->abmn", fv, w1, w2, phi1, phi2)
    return DGFunction2D(mesh, degree, coeffs)


def l2_error_2d(u: DGFunction2D, f: Callable, npts: int | None = None) -> float:
    npts = u.degree + 5 if npts is None else npts
    p1, w1, phi1 = _cell_tables(u.mesh.mesh1, u.degree, npts)
    p2, w2, phi2 = _cell_tables(u.mesh.mesh2, u.degree, npts)
    uv = np.einsum("abmn,amp,bnq->abpq", u.coeffs, phi1, phi2)
    fv = _sample_2d(f, p1, p2)
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
    return LinearOperator(mat.tocsr(), layout=layout)


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

    # Stage-one right-hand sides: for each y, moments over mesh1 cells and
    # values at mesh1 interfaces of x -> w(x, y).
    p1, w1, phi1 = _cell_tables(m1, degree, npts)
    wv = _sample_2d(w, p1, ys[None, :])[:, 0]  # (n1, npts, ys.size)
    moments1 = np.einsum("apy,ap,amp->amy", wv, w1, phi1)  # (n1, k+1, ys.size)
    ifc1 = _sample_2d(w, m1.interfaces[:, None], ys[None, :])[:, 0, 0]  # (n1, ys.size)
    rhs1 = pi_theta_rhs(moments1, ifc1, degree)  # (n1*(k+1), ys.size)
    c1 = lu1.solve(rhs1)  # stage-one coefficients at every sample
    _require_small_residual(mat1, c1, rhs1, "stage-one tensor projection")

    # Stage two: each row of c1 is a function of y known at the sample set.
    g_quad = c1[:, : n2 * npts].reshape(n1 * k1, n2, npts)
    g_ifc = c1[:, n2 * npts :]  # (n1*(k+1), n2)
    moments2 = np.einsum("gbq,bq,bnq->bng", g_quad, w2, phi2)  # (n2, k+1, n1*(k+1))
    rhs2 = pi_theta_rhs(moments2, g_ifc.T, degree)  # (n2*(k+1), n1*(k+1))
    c2 = lu2.solve(rhs2)
    _require_small_residual(mat2, c2, rhs2, "stage-two tensor projection")

    coeffs = c2.reshape(n2, k1, n1, k1).transpose(2, 0, 3, 1)  # -> (j1, j2, m1, m2)
    return DGFunction2D(mesh, degree, coeffs)


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a), initial=0.0))


def _weighted_trace(c: np.ndarray, mesh: Mesh1D, degree: int, theta: float) -> np.ndarray:
    """theta * (trace from the left) + (1 - theta) * (trace from the right)
    at every interface of mesh, for coefficients c of shape
    (cells, modes, ...); interface j is the right end of cell j."""
    left, right = _trace_vectors(mesh, degree)
    return theta * np.einsum("am...,am->a...", c, right) + (1.0 - theta) * np.einsum(
        "am...,am->a...", np.roll(c, -1, axis=0), np.roll(left, -1, axis=0)
    )


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
    p1, w1, phi1 = _cell_tables(m1, degree, npts)
    p2, w2, phi2 = _cell_tables(m2, degree, npts)

    # Volume: the quadrature is exact for the moments of u against
    # Q^{k-1}, and those moments are u's own coefficients.
    volume = u.coeffs - project_l2_2d(w, u.mesh, degree, npts=npts).coeffs

    # Edges: the weighted trace of u across every direction-a interface,
    # a function of the other coordinate b, must match w there in P^{k-1}
    # moments. Coefficients are ordered (cells_a, modes_a, cells_b, modes_b).
    edge, traces = [], []
    for coeffs, mesh_a, theta_a, wv, wb, phib in (
        (u.coeffs.transpose(0, 2, 1, 3), m1, theta1,
         _sample_2d(w, m1.interfaces[:, None], p2)[:, :, 0], w2, phi2),
        (u.coeffs.transpose(1, 3, 0, 2), m2, theta2,
         _sample_2d(w, p1, m2.interfaces[:, None])[:, :, :, 0].transpose(1, 0, 2), w1, phi1),
    ):
        tr = _weighted_trace(coeffs, mesh_a, degree, theta_a)  # (interfaces_a, cells_b, k+1)
        tr_vals = np.einsum("abn,bnq->abq", tr, phib)
        edge.append(np.einsum("abq,bq,bnq->abn", tr_vals - wv, wb, phib)[:, :, :degree])
        traces.append(tr)

    # Corners: the direction-2 weighted trace of the direction-1 trace is
    # the doubly weighted vertex value, which must equal w there.
    corner = _weighted_trace(traces[0].transpose(1, 2, 0), m2, degree, theta2).T - _sample_2d(
        w, m1.interfaces[:, None], m2.interfaces[:, None]
    )[:, :, 0, 0]
    return {
        "volume": _max_abs(volume[:, :, :degree, :degree]),
        "edge": max(_max_abs(d) for d in edge),
        "corner": _max_abs(corner),
    }
