"""Shared one-dimensional DG groundwork: meshes, quadrature, the orthonormal
modal Legendre basis, piecewise-polynomial functions, and L2 projection.

Conventions used throughout the package:

* Periodic domain [a, b) from the mesh's boundaries ([0, 2 pi) for the
  uniform and perturbed meshes), cells I_j = [x_{j-1/2}, x_{j+1/2}].
* On each cell the basis is phi_m(x) = sqrt((2m+1)/h_j) * P_m(xi) with
  xi = 2(x - x_j)/h_j, so the element mass matrix is the identity and the
  L2 norm of a DGFunction equals the Euclidean norm of its coefficients.
* At an interface, "minus" is the trace from the left cell and "plus" the
  trace from the right cell; the jump is [u] = plus - minus and the average
  {u} = (plus + minus)/2.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

TWO_PI = 2.0 * np.pi


class NumericalError(RuntimeError):
    """A numerical guarantee was violated (solver residual, CFL, ...)."""


class ConfigError(ValueError):
    """A configuration document is malformed or inconsistent."""


@lru_cache(maxsize=64)
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1].

    Exact for polynomials of degree <= 2n - 1.
    """
    if n < 1:
        raise ValueError(f"need at least one quadrature point, got n={n}")
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def legendre_table(degree: int, xi: np.ndarray, nderiv: int = 0) -> np.ndarray:
    """Evaluate P_0..P_degree and reference derivatives at points xi.

    Returns an array of shape (nderiv+1, degree+1, len(xi)); entry [d, m, i]
    is the d-th derivative of P_m at xi[i] (derivatives with respect to the
    reference coordinate).
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.zeros((nderiv + 1, degree + 1, xi.size))
    for m in range(degree + 1):
        c = np.zeros(m + 1)
        c[m] = 1.0
        for d in range(nderiv + 1):
            cd = np.polynomial.legendre.legder(c, d) if d > 0 else c
            if cd.size:
                out[d, m] = np.polynomial.legendre.legval(xi, cd)
    return out


@dataclass(frozen=True)
class Mesh1D:
    """A periodic 1D mesh described by its cell boundaries.

    boundaries has n_cells + 1 strictly increasing entries; the first and
    last are identified (periodicity).
    """

    boundaries: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=float)
        if b.ndim != 1 or b.size < 3:
            raise ValueError("a mesh needs at least two cells")
        if not np.all(np.diff(b) > 0):
            raise ValueError("cell boundaries must be strictly increasing")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "boundaries", b)

    @classmethod
    def uniform(cls, n_cells: int) -> "Mesh1D":
        """n_cells equal cells on [0, 2 pi)."""
        return cls(np.linspace(0.0, TWO_PI, n_cells + 1))

    @classmethod
    def perturbed(cls, n_cells: int, rel: float = 0.2, seed: int = 0) -> "Mesh1D":
        """Quasi-uniform mesh on [0, 2 pi): interior boundaries of the
        uniform mesh are shifted by at most rel/2 of the uniform spacing (so
        cell widths stay within a factor (1 - rel, 1 + rel) of h)."""
        if not 0.0 <= rel < 1.0:
            raise ValueError("relative perturbation must lie in [0, 1)")
        rng = np.random.default_rng(seed)
        h = TWO_PI / n_cells
        bounds = np.linspace(0.0, TWO_PI, n_cells + 1)
        bounds[1:-1] += rng.uniform(-0.5 * rel, 0.5 * rel, n_cells - 1) * h
        return cls(bounds)

    @property
    def n_cells(self) -> int:
        return self.boundaries.size - 1

    @property
    def a(self) -> float:
        return float(self.boundaries[0])

    @property
    def b(self) -> float:
        return float(self.boundaries[-1])

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.boundaries)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.boundaries[:-1] + self.boundaries[1:])

    @property
    def h_max(self) -> float:
        return float(self.widths.max())

    @property
    def h_min(self) -> float:
        return float(self.widths.min())

    @property
    def interfaces(self) -> np.ndarray:
        """Interface i sits at x_{i+1/2} = boundaries[i+1]; the last one is
        the periodic seam at b (identified with a)."""
        return self.boundaries[1:]

    def quad_points(self, npts: int) -> tuple[np.ndarray, np.ndarray]:
        """Physical quadrature nodes and weights, shape (n_cells, npts)."""
        xi, w = gauss_rule(npts)
        pts = self.centers[:, None] + 0.5 * self.widths[:, None] * xi[None, :]
        wts = 0.5 * self.widths[:, None] * w[None, :]
        return pts, wts

    def cache_token(self) -> bytes:
        return hashlib.sha256(self.boundaries.tobytes()).digest()


def _basis_scale(mesh: Mesh1D, degree: int) -> np.ndarray:
    """sqrt((2m+1)/h_j), shape (n_cells, degree+1)."""
    m = np.arange(degree + 1)
    return np.sqrt((2 * m + 1)[None, :] / mesh.widths[:, None])


def _trace_vectors(mesh: Mesh1D, degree: int, order: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint values of the order-th derivative of the scaled basis:
    (left, right), shape (n_cells, degree+1).

    Uses the exact closed form P_m^(d)(1) = C(m+d, 2d) (2d-1)!! and
    P_m^(d)(-1) = (-1)^(m+d) P_m^(d)(1); the chain rule adds (2/h)^d.
    """
    m = np.arange(degree + 1)
    double_factorial = math.prod(range(1, 2 * order, 2))
    at_one = np.array([math.comb(i + order, 2 * order) * double_factorial for i in m])
    right = _basis_scale(mesh, degree) * (2.0 / mesh.widths[:, None]) ** order * at_one
    return right * (-1.0) ** (m + order), right


@dataclass(frozen=True)
class DGFunction:
    """Piecewise polynomial on a Mesh1D in the orthonormal modal basis."""

    mesh: Mesh1D
    degree: int
    coeffs: np.ndarray  # (n_cells, degree + 1)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.mesh.n_cells, self.degree + 1):
            raise ValueError(
                f"coefficient array has shape {c.shape}, expected "
                f"{(self.mesh.n_cells, self.degree + 1)}"
            )
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_vector(cls, mesh: Mesh1D, degree: int, vec: np.ndarray) -> "DGFunction":
        return cls(mesh, degree, np.asarray(vec, dtype=float).reshape(mesh.n_cells, degree + 1))

    @property
    def vector(self) -> np.ndarray:
        return self.coeffs.reshape(-1)

    def norm(self) -> float:
        """L2 norm; equals the coefficient norm because the basis is
        orthonormal (Parseval)."""
        return float(np.linalg.norm(self.coeffs))

    def integral(self) -> float:
        """<u, 1> over the domain."""
        return float(self.coeffs[:, 0] @ np.sqrt(self.mesh.widths))

    def mean(self) -> float:
        return self.integral() / self.mesh.length

    def cell_traces(self) -> tuple[np.ndarray, np.ndarray]:
        """(left, right) endpoint values of every cell, shape (n_cells,)."""
        left, right = _trace_vectors(self.mesh, self.degree)
        return (self.coeffs * left).sum(axis=1), (self.coeffs * right).sum(axis=1)

    def interface_values(self) -> tuple[np.ndarray, np.ndarray]:
        """(minus, plus) traces at the n_cells interfaces x_{i+1/2}."""
        left, right = self.cell_traces()
        minus = right
        plus = np.roll(left, -1)
        return minus, plus

    def jumps(self) -> np.ndarray:
        minus, plus = self.interface_values()
        return plus - minus

    def evaluate(self, x, side: str = "auto") -> np.ndarray:
        """Point values. side="minus"/"plus" selects the one-sided limit at
        interface points; "auto" gives the plus limit there."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        mesh = self.mesh
        xm = mesh.a + np.mod(x - mesh.a, mesh.length)
        idx = np.clip(np.searchsorted(mesh.boundaries, xm, side="right") - 1, 0, mesh.n_cells - 1)
        xi = 2.0 * (xm - mesh.centers[idx]) / mesh.widths[idx]
        if side == "minus":
            at_left_edge = xm == mesh.boundaries[idx]
            idx = np.where(at_left_edge, (idx - 1) % mesh.n_cells, idx)
            xi = np.where(at_left_edge, 1.0, xi)
        elif side not in ("auto", "plus"):
            raise ValueError(f"unknown side {side!r}")
        ptab = legendre_table(self.degree, xi)[0]  # (degree+1, len(x))
        scale = _basis_scale(mesh, self.degree)
        vals = np.einsum("pm,mp->p", self.coeffs[idx] * scale[idx], ptab)
        return vals if vals.size > 1 else vals.reshape(())


def project_l2(f: Callable, mesh: Mesh1D, degree: int, npts: int | None = None) -> DGFunction:
    """L2 projection onto the DG space (cell-by-cell moments).

    f must accept a numpy array of points. npts defaults to degree + 2,
    which integrates the moments of smooth data well past the scheme's
    accuracy.
    """
    npts = degree + 2 if npts is None else npts
    pts, wts = mesh.quad_points(npts)
    xi, _ = gauss_rule(npts)
    ptab = legendre_table(degree, xi)[0]  # (degree+1, npts)
    fv = np.asarray(f(pts.reshape(-1)), dtype=float).reshape(pts.shape)
    coeffs = np.einsum("jq,mq->jm", fv * wts, ptab) * _basis_scale(mesh, degree)
    # the (h/2) Jacobian is inside wts; scale carries sqrt((2m+1)/h)
    return DGFunction(mesh, degree, coeffs)


def l2_error(u: DGFunction, f: Callable, npts: int | None = None) -> float:
    """L2 distance between a DGFunction and a callable, by quadrature with
    degree + 5 points per cell unless overridden."""
    npts = u.degree + 5 if npts is None else npts
    pts, wts = u.mesh.quad_points(npts)
    xi, _ = gauss_rule(npts)
    ptab = legendre_table(u.degree, xi)[0]
    uv = np.einsum("jm,mq->jq", u.coeffs * _basis_scale(u.mesh, u.degree), ptab)
    fv = np.asarray(f(pts.reshape(-1)), dtype=float).reshape(pts.shape)
    return float(np.sqrt(np.sum(wts * (uv - fv) ** 2)))


def mean_value(f: Callable, mesh: Mesh1D, npts: int = 8) -> float:
    """Domain mean of a callable, <f, 1> / (b - a), by quadrature."""
    pts, wts = mesh.quad_points(npts)
    fv = np.asarray(f(pts.reshape(-1)), dtype=float).reshape(pts.shape)
    return float(np.sum(wts * fv) / mesh.length)


@dataclass(frozen=True)
class SmoothFunction:
    """A smooth periodic function bundled with analytic derivatives.

    derivatives[i] is the i-th spatial derivative (index 0 is the value).
    Manufactured solutions supply these closures; nothing in the package
    differentiates numerically.
    """

    derivatives: tuple

    def __call__(self, x):
        return self.derivatives[0](x)

    def deriv(self, order: int) -> Callable:
        if order >= len(self.derivatives):
            raise ValueError(
                f"derivative of order {order} not supplied "
                f"(have 0..{len(self.derivatives) - 1})"
            )
        return self.derivatives[order]
