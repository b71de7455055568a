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
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh, svds

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
    """A sparse matrix acting on flattened DG coefficient vectors.

    layout, when the assembler knows it, is (shape, cell_axes): the
    vector reshapes to shape, and the axes listed in cell_axes index the
    cells of a periodic mesh. Scalar and two-field 1D operators use
    ((fields, n, k+1), (1,)), 2D advection ((n1, k+1, n2, k+1), (0, 2)).
    The layout is what lets `symbols` read the operator mode by mode.
    """

    mat: sp.csr_matrix
    layout: tuple | None = None

    def __post_init__(self):
        m = sp.csr_matrix(self.mat)
        if m.shape[0] != m.shape[1]:
            raise ValueError("operators here are square")
        object.__setattr__(self, "mat", m)

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    @cached_property
    def _modes(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(symbols, the spectral norm of each), kept together so that no
        caller sees one without the other; None without symbols."""
        if self.layout is None:
            return None
        block_rows, bound, c_bound = _circulant_defect(self.mat, self.layout)
        if bound > 1e-12 * c_bound:  # c_bound >= |C|_2: refused before any SVD
            return None
        shape, cell_axes = self.layout
        m = block_rows.shape[0]
        axes = tuple(1 + ax for ax in cell_axes)
        symbols = np.fft.fftn(block_rows.reshape((m,) + shape), axes=axes)
        symbols = np.moveaxis(symbols, axes, tuple(range(len(axes))))
        symbols = symbols.reshape(-1, m, m)
        norms = _mode_norms(symbols)
        if bound > 1e-12 * norms.max():
            return None
        symbols.setflags(write=False)
        norms.setflags(write=False)
        return symbols, norms

    @property
    def symbols(self) -> np.ndarray | None:
        """Per-mode matrices, shape (modes, m, m), when the operator is
        block circulant over its cell axes; None otherwise.

        The blocks are read from the cell-0 block rows of the matrix and
        Fourier transformed over the cell axes, so the operator is unitarily
        similar to the block diagonal of the symbols. They are returned only
        when the block circulant C with those rows reproduces the matrix:
        the bound sqrt(|A - C|_1 |A - C|_inf) >= |A - C|_2 must be at most
        1e-12 |C|_2. The bound is summed entry by entry without building C
        (see _circulant_defect). An operator whose bound already exceeds
        1e-12 sqrt(|C|_1 |C|_inf) >= 1e-12 |C|_2 is refused before any
        Fourier transform or SVD; otherwise |C|_2 comes from the one
        batched SVD of the symbols, whose per-mode norms `mode_norms`
        keeps for operator_norm. Uniform meshes pass (their widths differ
        by ulps), perturbed ones do not. Computed on first use and kept.
        """
        return None if self._modes is None else self._modes[0]

    @property
    def mode_norms(self) -> np.ndarray | None:
        """Spectral norm of every matrix in `symbols`; None without them."""
        return None if self._modes is None else self._modes[1]

    def apply_modes(self, per_mode: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The operator whose mode-k block is per_mode[k], applied to v.

        per_mode has the shape of `symbols` (per_mode = symbols applies L
        itself, expm(t * symbols) applies exp(tL)). v, of shape (n,) or
        (n, ...), goes to its mode coefficients by a unitary inverse FFT
        over the layout's cell axes, each mode is multiplied by its
        matrix, and a unitary FFT brings it back. The result is real for
        a real v: per_mode must then come from a real operator, whose
        modes k and -k are conjugate.
        """
        if self.symbols is None:
            raise ValueError("the operator has no per-mode form")
        shape, cell_axes = self.layout
        front = tuple(range(len(cell_axes)))
        x = np.fft.ifftn(v.reshape(shape + v.shape[1:]), axes=cell_axes, norm="ortho")
        x = np.moveaxis(x, cell_axes, front)
        moved = x.shape
        x = np.matmul(per_mode, x.reshape(per_mode.shape[:2] + (-1,)))
        x = np.moveaxis(x.reshape(moved), front, cell_axes)
        out = np.fft.fftn(x, axes=cell_axes, norm="ortho").reshape(v.shape)
        return out if np.iscomplexobj(v) else out.real

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.mat @ v

    def dense(self) -> np.ndarray:
        return self.mat.toarray()


def cell_layout(fields: int, n_cells: int, degree: int) -> tuple:
    """Layout of field-major, cell-major 1D coefficient vectors."""
    return ((fields, n_cells, degree + 1), (1,))


def _mode_stack(symbols: np.ndarray) -> np.ndarray:
    """Per-mode matrices flattened to shape (modes, m, m)."""
    return np.reshape(symbols, (-1,) + symbols.shape[-2:])


def _mode_norms(symbols: np.ndarray) -> np.ndarray:
    """Spectral norm of every per-mode matrix, by one batched SVD."""
    return np.linalg.norm(_mode_stack(symbols), 2, axis=(-2, -1))


def _circulant_defect(mat: sp.csr_matrix, layout: tuple) -> tuple[np.ndarray, float, float]:
    """(block_rows, sqrt(|A - C|_1 |A - C|_inf), sqrt(|C|_1 |C|_inf)) for
    A = mat and C the block circulant over the layout's cell axes whose
    cell-0 block rows, the dense block_rows of shape (m, n), are A's.

    C's entry in a row of cell c and a column of cell d is the entry of
    its block row in that column moved back to cell d - c. So each stored
    entry of A is moved back by its row's cell shift, one cell axis at a
    time in the matrix's own index dtype, and read off block_rows. C's
    entries outside A's pattern add |C|'s row and column sums less the
    part that A's pattern covers. A column of C holds the same values as
    every column at the same place in another cell.
    """
    shape, cell_axes = layout
    if not mat.has_canonical_format:  # duplicate entries add up
        mat = mat.copy()
        mat.sum_duplicates()
    n, counts = mat.shape[0], np.diff(mat.indptr)
    cell0 = tuple(slice(0, 1) if ax in cell_axes else slice(None) for ax in range(len(shape)))
    rows = np.arange(n).reshape(shape)[cell0]
    block_rows = mat[rows.ravel()].toarray()
    block = np.broadcast_to(np.arange(rows.size).reshape(rows.shape), shape).ravel()
    col_back = mat.indices.copy()
    for ax in cell_axes:
        size, stride, dtype = shape[ax], int(np.prod(shape[ax + 1:])), col_back.dtype
        ramp = np.arange(size, dtype=dtype)
        along = [-1 if a == ax else 1 for a in range(len(shape))]
        cell = np.broadcast_to(ramp.reshape(along), shape).ravel()  # of every index
        wrap = np.tile(ramp, 2)  # wrap[d + size] = d mod size
        col_cell = cell[mat.indices]
        col_back += (wrap[col_cell - np.repeat(cell, counts) + size] - col_cell) * stride
    c = block_rows[np.repeat(block, counts), col_back]
    excess = np.abs(mat.data - c) - np.abs(c)  # |A - C| less |C| on A's pattern
    del c, col_back  # freed before the per-entry arrays of the sums below
    abs_rows = np.abs(block_rows)
    row_abs = abs_rows.sum(axis=1)
    col_abs = abs_rows.sum(axis=0).reshape(shape).sum(axis=cell_axes, keepdims=True)
    col_abs = np.broadcast_to(col_abs, shape).ravel()
    row_defect = np.bincount(np.repeat(np.arange(n), counts), excess, minlength=n) + row_abs[block]
    col_defect = np.bincount(mat.indices, excess, minlength=n) + col_abs
    # Rounding can leave an exactly covered row or column a hair below 0.
    bound = np.sqrt(max(row_defect.max(), 0.0) * max(col_defect.max(), 0.0))
    return block_rows, float(bound), float(np.sqrt(row_abs.max() * col_abs.max()))


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
    return LinearOperator(_block_stencil(-stencil), layout=cell_layout(1, mesh.n_cells, degree))


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
    return LinearOperator(mat.tocsr(), layout=factors[0].layout)


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
    return LinearOperator(_block_stencil(-stencil), layout=cell_layout(1, mesh.n_cells, degree))


def spectrum_method(op) -> str:
    """How |L| and mu of op, a LinearOperator or a SymbolOperator, are
    measured: "modes" (exact, per mode) when it has symbols, "krylov"
    (one ARPACK call each on its matrix) otherwise."""
    return "modes" if op.symbols is not None else "krylov"


def _arpack(what: str, solve, n: int) -> float:
    """The one value solve(v0) returns, from ARPACK.

    Every call starts from the same seeded v0, so a measurement repeats
    bit for bit. ARPACK stops on the Ritz residual |r| <= eps |theta|; a
    result it does not report converged is refused."""
    try:
        return float(solve(np.random.default_rng(7).standard_normal(n))[0])
    except ArpackNoConvergence as err:
        raise NumericalError(f"ARPACK did not converge on {what} ({n} unknowns): {err}") from None


def semiboundedness_mu(op) -> float:
    """mu = largest eigenvalue of the Hermitian part (A + A^*)/2.

    <L v, v> <= mu |v|^2 for all v, with equality attained. An operator
    with symbols (a SymbolOperator, or a LinearOperator on a uniform
    periodic mesh) gives the exact maximum over its per-mode Hermitian
    parts. Otherwise ARPACK finds the top eigenvalue c + mu of the
    symmetric part shifted by its largest absolute row sum c >= rho.
    Without the shift a dissipative operator's top eigenvalue sits in a
    degenerate cluster at zero, where ARPACK's relative stopping test
    cannot settle."""
    if op.symbols is not None:
        stack = _mode_stack(op.symbols)
        herm = 0.5 * (stack + np.conj(np.swapaxes(stack, -1, -2)))
        return float(np.max(np.linalg.eigvalsh(herm)))
    sym = (0.5 * (op.mat + op.mat.T)).tocsr()
    shift = float(np.max(np.abs(sym).sum(axis=1))) or 1.0
    shifted = sym + shift * sp.identity(sym.shape[0], format="csr")
    top = _arpack(
        "the shifted symmetric part",
        lambda v0: eigsh(shifted, k=1, which="LA", v0=v0, return_eigenvectors=False),
        sym.shape[0],
    )
    return top - shift


def operator_norm(op) -> float:
    """Spectral norm.

    An operator with symbols (a SymbolOperator, or a LinearOperator on a
    uniform periodic mesh) gives the exact maximum over its per-mode
    singular values; a LinearOperator keeps them from the batched SVD
    that accepted its symbols. Otherwise it is ARPACK's largest singular
    value.
    """
    if op.symbols is not None:
        norms = op.mode_norms if isinstance(op, LinearOperator) else _mode_norms(op.symbols)
        return float(norms.max())
    if op.mat.count_nonzero() == 0:
        return 0.0  # ARPACK refuses a start vector the operator maps to zero
    return _arpack(
        "the largest singular value",
        lambda v0: svds(op.mat, k=1, solver="arpack", return_singular_vectors=False, v0=v0),
        op.n,
    )


def quadratic_form(op: LinearOperator, v: np.ndarray) -> float:
    """<L v, v> in the L2 inner product (coefficients are orthonormal)."""
    return float(v @ (op.mat @ v))


def jump_energy(u: DGFunction) -> float:
    """Sum of squared interface jumps, the quantity the flux parameter
    weights in <D_theta v, v>."""
    return float(np.sum(u.jumps() ** 2))
