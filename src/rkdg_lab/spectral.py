"""Fourier-side tools: truncated series, symbol operators for
first-order symmetric systems, and spectrally accurate error measures.

A FourierFunction stores coefficients a_k for |k_i| <= n_max on the
periodic box [0, 2pi)^d with m components; index order is
(k_1 [+n_max], ..., k_d [+n_max], component). The L2 norm is
(2 pi)^{d/2} times the coefficient norm.

The symbol operator for u_t + sum_i A_i du/dx_i = 0 with symmetric A_i
multiplies mode k by -i (sum_i k_i A_i); it is skew-Hermitian mode by
mode, so the exact evolution is an isometry and every deviation in a
fully discrete run is attributable to the time discretization and the
initial truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dg_ops1d import operator_norm


@dataclass(frozen=True)
class FourierFunction:
    n_max: int
    dim: int
    coeffs: np.ndarray  # (2*n_max+1,)*dim + (m,)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        side = 2 * self.n_max + 1
        if c.shape[: self.dim] != (side,) * self.dim or c.ndim != self.dim + 1:
            raise ValueError(
                f"coefficient array has shape {c.shape}, expected "
                f"{(side,) * self.dim} + (components,)"
            )
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def n_components(self) -> int:
        return self.coeffs.shape[-1]

    def norm(self) -> float:
        return float((2.0 * np.pi) ** (self.dim / 2.0) * np.linalg.norm(self.coeffs))

    def with_coeffs(self, coeffs: np.ndarray) -> "FourierFunction":
        return FourierFunction(self.n_max, self.dim, coeffs)


def wavenumbers(n_max: int) -> np.ndarray:
    return np.arange(-n_max, n_max + 1)


def _grid_values(f: Callable, n_pts: int, dim: int) -> np.ndarray:
    """f on the uniform n_pts^dim grid of [0, 2pi)^dim, shape
    (n_pts,)*dim + (components,). f takes one flat coordinate array per
    direction; a plain flat return is read as a single component."""
    x = 2.0 * np.pi * np.arange(n_pts) / n_pts
    grids = np.meshgrid(*[x] * dim, indexing="ij")
    vals = np.asarray(f(*(g.reshape(-1) for g in grids)), dtype=complex)
    return vals.reshape((n_pts,) * dim + (-1,))


def fourier_truncate(
    f: Callable,
    n_max: int,
    dim: int = 1,
    n_samples: int | None = None,
) -> FourierFunction:
    """Coefficients a_k for |k_i| <= n_max by FFT on a uniform grid.

    The default grid has 4 n_max + 5 points per direction, so the result
    is alias-free for band-limited data up to 3 n_max + 4 and the
    aliasing floor for smooth data sits far below the truncation error.
    f maps coordinate arrays to shape (..., m) for m components (a plain
    (...) return is read as a single component).
    """
    if dim not in (1, 2):
        raise ValueError("only dim 1 and 2 are supported")
    n_pts = (4 * n_max + 5) if n_samples is None else n_samples
    if n_pts < 2 * n_max + 1:
        raise ValueError("need at least 2*n_max + 1 samples per direction")
    vals = _grid_values(f, n_pts, dim)
    spec = np.fft.fftn(vals, axes=tuple(range(dim))) / n_pts**dim
    idx = wavenumbers(n_max) % n_pts
    return FourierFunction(n_max, dim, spec[np.ix_(*[idx] * dim)])


def evaluate_on_grid(u: FourierFunction, n_pts: int) -> np.ndarray:
    """Values on the uniform n_pts^dim grid by zero-padded inverse FFT
    (exact synthesis, no aliasing). Shape (n_pts,)*dim + (m,)."""
    if n_pts < 2 * u.n_max + 1:
        raise ValueError("grid too coarse to hold the spectrum")
    spec = np.zeros((n_pts,) * u.dim + (u.n_components,), dtype=complex)
    idx = wavenumbers(u.n_max) % n_pts
    spec[np.ix_(*[idx] * u.dim)] = u.coeffs
    return np.fft.ifftn(spec, axes=tuple(range(u.dim))) * n_pts**u.dim


def grid_l2_error(u: FourierFunction, exact: Callable, n_pts: int | None = None) -> float:
    """L2 distance to a callable by trapezoid quadrature on a uniform
    grid (spectrally accurate for smooth periodic integrands)."""
    n_pts = max(128, 4 * u.n_max + 9) if n_pts is None else n_pts
    vals = evaluate_on_grid(u, n_pts)
    ev = _grid_values(exact, n_pts, u.dim)
    cell = (2.0 * np.pi / n_pts) ** u.dim
    return float(np.sqrt(cell * np.sum(np.abs(vals - ev) ** 2)))


@dataclass(frozen=True)
class SymbolOperator:
    """Mode-diagonal operator a_k -> -i (sum_i k_i A_i) a_k.

    symbols[k-index..., :, :] holds the per-mode matrix, precomputed at
    construction. apply acts directly on coefficient arrays of shape
    (2 n_max + 1,)*dim + (m,), so time steppers treat states as plain
    arrays.
    """

    n_max: int
    dim: int
    a_matrices: tuple
    symbols: np.ndarray = None  # filled in __post_init__

    def __post_init__(self):
        mats = tuple(np.asarray(a, dtype=float) for a in self.a_matrices)
        if len(mats) != self.dim:
            raise ValueError(f"need {self.dim} coefficient matrices, got {len(mats)}")
        m = mats[0].shape[0]
        for a in mats:
            if a.shape != (m, m):
                raise ValueError("coefficient matrices must share one square shape")
            if np.abs(a - a.T).max() > 1e-14 * max(1.0, np.abs(a).max()):
                raise ValueError("coefficient matrices must be symmetric")
        object.__setattr__(self, "a_matrices", mats)
        k = wavenumbers(self.n_max).astype(float)
        grids = np.meshgrid(*[k] * self.dim, indexing="ij")
        sym = grids[0][..., None, None] * mats[0]
        for kk, a in zip(grids[1:], mats[1:]):
            sym = sym + kk[..., None, None] * a
        sym = -1j * sym
        sym.setflags(write=False)
        object.__setattr__(self, "symbols", sym)

    @property
    def n_components(self) -> int:
        return self.a_matrices[0].shape[0]

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        return np.matmul(self.symbols, coeffs[..., None])[..., 0]

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the operator on flattened coefficient arrays."""
        size = self.symbols.size // self.n_components
        return (size, size)

    def norm(self) -> float:
        """max over modes of the spectral norm of sum k_i A_i, by the
        per-mode SVD that operator_norm applies to every operator with
        symbols (exact, not an estimate)."""
        return operator_norm(self)


def apply_symbol(op: SymbolOperator, u: FourierFunction) -> FourierFunction:
    if u.n_max != op.n_max or u.dim != op.dim:
        raise ValueError("function and operator live on different mode sets")
    return u.with_coeffs(op.apply(u.coeffs))


def skewness_defect(op: SymbolOperator, u: FourierFunction) -> float:
    """|Re <L u, u>| / |u|^2; zero up to roundoff for symmetric A_i."""
    lu = op.apply(u.coeffs)
    inner = (2.0 * np.pi) ** op.dim * np.vdot(u.coeffs, lu)
    return float(abs(inner.real) / max(u.norm() ** 2, 1e-300))


def analytic_profile(x: np.ndarray) -> np.ndarray:
    """1 / (2 + cos x): entire in a strip, coefficients decay like
    (2 - sqrt(3))^|n|."""
    return 1.0 / (2.0 + np.cos(x))


def analytic_profile_coefficient(n) -> np.ndarray:
    """Exact Fourier coefficients of 1 / (2 + cos x):
    a_n = (-1)^n (2 - sqrt(3))^|n| / sqrt(3)."""
    n = np.asarray(n)
    rho = 2.0 - np.sqrt(3.0)
    return (-1.0) ** np.abs(n) * rho ** np.abs(n) / np.sqrt(3.0)


def finite_smoothness_coefficients(n_max: int, smoothness: int) -> np.ndarray:
    """Cosine-series coefficients a_n = |n|^{-(smoothness + 1/2)} for
    n != 0 (a_0 = 1), shaping a real even function whose truncation
    error after n_max scales like n_max^{-smoothness}."""
    n = wavenumbers(n_max)
    with np.errstate(divide="ignore"):
        a = np.where(n == 0, 1.0, np.abs(n).astype(float) ** -(smoothness + 0.5))
    return a.astype(complex)
