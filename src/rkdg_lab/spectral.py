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


def fourier_truncate(
    f: Callable,
    n_max: int,
    dim: int = 1,
    n_components: int = 1,
    n_samples: int | None = None,
) -> FourierFunction:
    """Coefficients a_k for |k_i| <= n_max by FFT on a uniform grid.

    The default grid has 4 n_max + 5 points per direction, so the result
    is alias-free for band-limited data up to 3 n_max + 4 and the
    aliasing floor for smooth data sits far below the truncation error.
    f maps coordinate arrays to shape (..., n_components) (a plain (...)
    return is accepted for a single component).
    """
    if dim not in (1, 2):
        raise ValueError("only dim 1 and 2 are supported")
    n_pts = (4 * n_max + 5) if n_samples is None else n_samples
    if n_pts < 2 * n_max + 1:
        raise ValueError("need at least 2*n_max + 1 samples per direction")
    x = 2.0 * np.pi * np.arange(n_pts) / n_pts
    if dim == 1:
        vals = np.asarray(f(x), dtype=complex)
        if vals.ndim == 1:
            vals = vals[:, None]
        spec = np.fft.fft(vals, axis=0) / n_pts
        idx = np.arange(-n_max, n_max + 1) % n_pts
        coeffs = spec[idx]
    else:
        xx, yy = np.meshgrid(x, x, indexing="ij")
        vals = np.asarray(f(xx.reshape(-1), yy.reshape(-1)), dtype=complex)
        if vals.ndim == 1:
            vals = vals[:, None]
        m = vals.shape[-1]
        vals = vals.reshape(n_pts, n_pts, m)
        spec = np.fft.fft2(vals, axes=(0, 1)) / n_pts**2
        idx = np.arange(-n_max, n_max + 1) % n_pts
        coeffs = spec[np.ix_(idx, idx)]
    return FourierFunction(n_max, dim, coeffs)


def evaluate_on_grid(u: FourierFunction, n_pts: int) -> np.ndarray:
    """Values on the uniform n_pts^dim grid by zero-padded inverse FFT
    (exact synthesis, no aliasing). Shape (n_pts,)*dim + (m,)."""
    if n_pts < 2 * u.n_max + 1:
        raise ValueError("grid too coarse to hold the spectrum")
    m = u.n_components
    k = wavenumbers(u.n_max)
    if u.dim == 1:
        spec = np.zeros((n_pts, m), dtype=complex)
        spec[k % n_pts] = u.coeffs
        return np.fft.ifft(spec, axis=0) * n_pts
    spec = np.zeros((n_pts, n_pts, m), dtype=complex)
    spec[np.ix_(k % n_pts, k % n_pts)] = u.coeffs
    return np.fft.ifft2(spec, axes=(0, 1)) * n_pts**2


def grid_l2_error(u: FourierFunction, exact: Callable, n_pts: int | None = None) -> float:
    """L2 distance to a callable by trapezoid quadrature on a uniform
    grid (spectrally accurate for smooth periodic integrands)."""
    n_pts = max(128, 4 * u.n_max + 9) if n_pts is None else n_pts
    vals = evaluate_on_grid(u, n_pts)
    x = 2.0 * np.pi * np.arange(n_pts) / n_pts
    if u.dim == 1:
        ev = np.asarray(exact(x), dtype=complex)
        if ev.ndim == 1:
            ev = ev[:, None]
        cell = 2.0 * np.pi / n_pts
    else:
        xx, yy = np.meshgrid(x, x, indexing="ij")
        ev = np.asarray(exact(xx.reshape(-1), yy.reshape(-1)), dtype=complex)
        if ev.ndim == 1:
            ev = ev[:, None]
        ev = ev.reshape(n_pts, n_pts, -1)
        cell = (2.0 * np.pi / n_pts) ** 2
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
        if self.dim == 1:
            sym = -1j * k[:, None, None] * mats[0][None]
        else:
            kk1, kk2 = np.meshgrid(k, k, indexing="ij")
            sym = -1j * (
                kk1[:, :, None, None] * mats[0][None, None]
                + kk2[:, :, None, None] * mats[1][None, None]
            )
        sym.setflags(write=False)
        object.__setattr__(self, "symbols", sym)

    @property
    def n_components(self) -> int:
        return self.a_matrices[0].shape[0]

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        return np.matmul(self.symbols, coeffs[..., None])[..., 0]

    def norm(self) -> float:
        """max over modes of the spectral norm of sum k_i A_i (the
        symbols are skew-Hermitian, so this is exact, not an estimate)."""
        flat = self.symbols.reshape(-1, self.n_components, self.n_components)
        # eigenvalues of -i K are -i times the (real) eigenvalues of K
        vals = np.linalg.eigvalsh(1j * flat)
        return float(np.abs(vals).max())


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
