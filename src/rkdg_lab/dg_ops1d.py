"""Discrete spatial operators for scalar problems on periodic 1D meshes.

The building block is the DG derivative D_theta defined weakly by

    <D_theta w, v>_j = -<w, v'>_j - sum over interfaces of what_ [v],

with the one-parameter numerical flux what_ = theta * w_minus +
(1 - theta) * w_plus and jump [v] = v_plus - v_minus. theta = 1 is the
upwind choice for right-going transport, theta = 1/2 the central one.

Two identities drive everything else here and are enforced by the tests:

    D_theta^T = -D_{1-theta}           (adjoint pairing)
    <D_theta v, v> = (theta - 1/2) * sum of [v]^2 over interfaces

High-order operators for u_t = beta * d^q u / dx^q are alternating-flux
compositions of first-order factors arranged so the discrete energy
never grows; see assemble_high_order_lh for the exact arrangement and
the admissibility conditions on (beta, theta_0).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core_fem import (
    DGFunction,
    Mesh1D,
    NumericalError,
    _trace_vectors,
    gauss_rule,
    legendre_table,
)


@dataclass(frozen=True)
class LinearOperator:
    """A sparse matrix acting on flattened DG coefficient vectors."""

    mat: sp.csr_matrix
    label: str = ""

    def __post_init__(self):
        m = sp.csr_matrix(self.mat)
        if m.shape[0] != m.shape[1]:
            raise ValueError("operators here are square")
        object.__setattr__(self, "mat", m)

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.mat @ v

    def dense(self) -> np.ndarray:
        return self.mat.toarray()

    def transpose(self) -> "LinearOperator":
        return LinearOperator(self.mat.T.tocsr(), label=self.label + "^T")

    def __matmul__(self, other: "LinearOperator") -> "LinearOperator":
        return LinearOperator(self.mat @ other.mat, label=f"{self.label}*{other.label}")

    def scaled(self, c: float) -> "LinearOperator":
        return LinearOperator(self.mat * float(c), label=self.label)


def _block_stencil(stencil: np.ndarray) -> sp.csr_matrix:
    """Periodic block-tridiagonal matrix from per-cell blocks.

    stencil has shape (3, n_cells, r, c); stencil[o, j] is the block in
    block row j and block column j + o - 1 (mod n_cells). Blocks landing
    on one position (two-cell meshes) add up; zero sums are not stored.
    """
    _, n_cells, r, c = stencil.shape
    cells = np.arange(n_cells)
    rows = (cells[:, None] * r + np.arange(r))[None, :, :, None]
    neighbours = (cells[None, :] + np.arange(-1, 2)[:, None]) % n_cells
    cols = (neighbours[:, :, None] * c + np.arange(c))[:, :, None, :]
    rows, cols = np.broadcast_arrays(rows, cols)
    mat = sp.coo_matrix(
        (stencil.ravel(), (rows.ravel(), cols.ravel())), shape=(n_cells * r, n_cells * c)
    ).tocsr()
    mat.eliminate_zeros()
    return mat


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-cell outer products of (n_cells, r) and (n_cells, c) rows."""
    return x[:, :, None] * y[:, None, :]


def _flux_stencil(
    mesh: Mesh1D, degree: int, a: float, b: float, trial_order: int = 0, test_order: int = 0
) -> np.ndarray:
    """Stencil of the interface form sum_i (a u_minus + b u_plus)_i [v]_i,
    with u and v replaced by their trial_order-th and test_order-th
    derivatives.

    Interface j-1/2 has cell j on its plus side, so [v] = v_plus - v_minus
    splits into a row of cell j (left test traces) and a row of cell j-1
    (right test traces).
    """
    u_left, u_right = _trace_vectors(mesh, degree, trial_order)
    v_left, v_right = _trace_vectors(mesh, degree, test_order)
    return np.stack([
        a * _outer(v_left, np.roll(u_right, 1, axis=0)),
        b * _outer(v_left, u_left) - a * _outer(v_right, u_right),
        -b * _outer(v_right, np.roll(u_left, -1, axis=0)),
    ])


def volume_derivative_blocks(mesh: Mesh1D, degree: int, order: int = 1) -> np.ndarray:
    """Per-cell matrices V_j[mp, m] = <phi_m, d^order phi_mp / dx^order>_j,
    shape (n_cells, k+1, k+1)."""
    xi, w = gauss_rule(degree + 2)
    tab = legendre_table(degree, xi, nderiv=order)
    s = np.sqrt(2 * np.arange(degree + 1) + 1.0)
    base = s[:, None] * s[None, :] * np.einsum("q,aq,bq->ab", w, tab[order], tab[0])
    # Jacobian h/2, two 1/sqrt(h) normalizations and the chain-rule
    # factor (2/h)^order leave 2^(order-1) / h^order.
    return base[None, :, :] * 2.0 ** (order - 1) / mesh.widths[:, None, None] ** order


def assemble_d_theta(mesh: Mesh1D, degree: int, theta: float) -> LinearOperator:
    """The DG derivative with flux parameter theta, as a sparse matrix on
    coefficient vectors ordered cell-major: D_theta = -(V + F), with V the
    volume blocks and F the flux form for what_ = theta w_minus +
    (1 - theta) w_plus."""
    stencil = _flux_stencil(mesh, degree, theta, 1.0 - theta)
    stencil[1] += volume_derivative_blocks(mesh, degree)
    return LinearOperator(_block_stencil(-stencil), label=f"D[theta={theta:g}]")


def middle_theta(q: int, theta0: float) -> float:
    """Flux parameter of the lone middle factor for odd q.

    The composition pairs each theta_i factor with a 1 - theta_i factor;
    for odd q the unpaired factor sits inside gamma = (q-1)/2 adjoint
    flips, so its effective parameter alternates with the parity of gamma.
    """
    gamma = (q - 1) // 2
    return theta0 if gamma % 2 == 0 else 1.0 - theta0


def high_order_flux_sequence(q: int, theta0: float | None, thetas: tuple[float, ...]) -> list[float]:
    """Flux parameters of the first-order factors of L_h in matrix-product
    order: the first list entry is the leftmost factor (applied last), the
    last entry the rightmost factor (applied first).

    The arrangement is [1-theta_gamma, ..., 1-theta_1, middle, theta_1,
    ..., theta_gamma], the middle factor appearing only for odd q.
    """
    gamma = q // 2
    if len(thetas) != gamma:
        raise ValueError(f"q={q} needs {gamma} theta parameters, got {len(thetas)}")
    seq = [1.0 - t for t in reversed(thetas)]
    if q % 2 == 1:
        if theta0 is None:
            raise ValueError("odd q needs theta0 for the middle factor")
        seq.append(middle_theta(q, theta0))
    seq.extend(thetas)
    return seq


def check_high_order_admissible(q: int, beta: float, theta0: float | None) -> None:
    """Admissibility of (q, beta, theta0) for a non-increasing energy.

    Even q: beta * (-1)^(q/2) < 0. Odd q: beta * (theta0 - 1/2) <= 0.
    These are exactly the sign conditions under which the alternating
    composition below satisfies <L_h v, v> <= 0 for every v.
    """
    if q < 1:
        raise ValueError("the derivative order q must be at least 1")
    if beta == 0.0:
        raise ValueError("beta must be nonzero")
    if q % 2 == 0:
        gamma = q // 2
        if beta * (-1.0) ** gamma >= 0:
            raise ValueError(
                f"even q={q}: beta * (-1)^(q/2) must be negative, got beta={beta:g}"
            )
    else:
        if theta0 is None:
            raise ValueError("odd q needs theta0")
        if beta * (theta0 - 0.5) > 0:
            raise ValueError(
                f"odd q={q}: beta * (theta0 - 1/2) must be <= 0, "
                f"got beta={beta:g}, theta0={theta0:g}"
            )


def assemble_high_order_lh(
    mesh: Mesh1D,
    degree: int,
    q: int,
    beta: float,
    theta0: float | None = None,
    thetas: tuple[float, ...] = (),
) -> LinearOperator:
    """Discrete operator for u_t = beta * d^q u / dx^q.

    With gamma = floor(q/2) the operator is the product

        L_h = beta * D_{1-theta_gamma} ... D_{1-theta_1} * M * D_{theta_1} ... D_{theta_gamma}

    where the rightmost factor acts first and M is the middle factor for
    odd q (parameter middle_theta(q, theta0)), the identity for even q.
    Each theta_i factor is paired with a 1 - theta_i factor in the
    adjoint position, which is what makes the quadratic form one-signed.
    Rejects parameter choices that would let the energy grow; see
    check_high_order_admissible.
    """
    check_high_order_admissible(q, beta, theta0)
    seq = high_order_flux_sequence(q, theta0, tuple(thetas))
    factors = [assemble_d_theta(mesh, degree, t) for t in seq]
    mat = factors[0].mat
    for f in factors[1:]:
        mat = mat @ f.mat
    mat = beta * mat
    label = f"L[q={q},beta={beta:g}]"
    return LinearOperator(mat.tocsr(), label=label)


def assemble_ultraweak_third(mesh: Mesh1D, degree: int) -> LinearOperator:
    """Single-space ultra-weak operator for u_t = d^3 u / dx^3.

    Weak form (all integrations by parts pushed onto the test function):

        <L_h w, v> = -<w, v'''> - sum_i ( what_ [v''] - wtilde [v'] + wcheck [v] )

    with traces what_ = w_minus, wtilde = (w')_minus, wcheck = (w'')_plus.
    This one-sided choice makes <L_h v, v> = -1/2 sum [v']^2, so the
    energy is non-increasing. Degrees below 3 assemble but lose the
    design accuracy; a warning points that out.
    """
    if degree < 3:
        warnings.warn(
            f"ultra-weak third-derivative operator with degree {degree} < 3 "
            "cannot reach its design order",
            stacklevel=2,
        )
    stencil = (
        _flux_stencil(mesh, degree, 1.0, 0.0, trial_order=0, test_order=2)
        - _flux_stencil(mesh, degree, 1.0, 0.0, trial_order=1, test_order=1)
        + _flux_stencil(mesh, degree, 0.0, 1.0, trial_order=2, test_order=0)
    )
    stencil[1] += volume_derivative_blocks(mesh, degree, order=3)
    return LinearOperator(_block_stencil(-stencil), label="L[ultraweak q=3]")


def semiboundedness_mu(op: LinearOperator) -> float:
    """mu = largest eigenvalue of the symmetric part (A + A^T)/2.

    <L v, v> <= mu |v|^2 for all v, with equality attained. Dense
    eigensolve up to n = 1500; sparse Lanczos beyond that."""
    if op.n <= 1500:
        sym = 0.5 * (op.dense() + op.dense().T)
        return float(np.linalg.eigvalsh(sym)[-1])
    # Shifted power iteration: sym + c I is positive semidefinite for
    # c = max absolute row sum >= rho(sym), and its dominant eigenvalue
    # is c + mu. Deterministic start vector, Rayleigh quotient readout.
    sym = (0.5 * (op.mat + op.mat.T)).tocsr()
    shift = float(np.max(np.abs(sym).sum(axis=1))) or 1.0
    rng = np.random.default_rng(11)
    v = rng.standard_normal(op.n)
    v /= np.linalg.norm(v)
    previous = np.inf
    for _ in range(10000):
        w = sym @ v + shift * v
        scale = np.linalg.norm(w)
        if scale == 0.0:
            return -shift
        v = w / scale
        rayleigh = float(v @ (sym @ v))
        if abs(rayleigh - previous) <= 1e-12 * max(1.0, shift):
            return rayleigh
        previous = rayleigh
    raise NumericalError("power iteration for the symmetric part did not settle")


def operator_norm(
    op: LinearOperator | np.ndarray,
    rtol: float = 1e-8,
    max_iter: int = 5000,
    seed: int = 7,
) -> float:
    """Spectral norm. Dense SVD up to n = 2000, power iteration on A^T A
    beyond that; raises NumericalError if the iteration stalls."""
    mat = op.mat if isinstance(op, LinearOperator) else sp.csr_matrix(op)
    n = mat.shape[0]
    if n <= 2000:
        return float(np.linalg.norm(mat.toarray(), 2))
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    mat_t = mat.T.tocsr()
    sigma = 0.0
    for _ in range(max_iter):
        w = mat @ v
        z = mat_t @ w
        zn = np.linalg.norm(z)
        if zn == 0.0:
            return 0.0
        new_sigma = float(np.sqrt(zn))
        v = z / zn
        if abs(new_sigma - sigma) <= rtol * max(new_sigma, 1e-300):
            return new_sigma
        sigma = new_sigma
    raise NumericalError(
        f"power iteration did not settle within {max_iter} iterations "
        f"(last estimate {sigma:.6e})"
    )


def quadratic_form(op: LinearOperator, v: np.ndarray) -> float:
    """<L v, v> in the L2 inner product (coefficients are orthonormal)."""
    return float(v @ (op.mat @ v))


def jump_energy(u: DGFunction) -> float:
    """Sum of squared interface jumps, the quantity the flux parameter
    weights in <D_theta v, v>."""
    return float(np.sum(u.jumps() ** 2))
