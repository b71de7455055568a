"""Fourier-side tools: truncated series, symbol operators for
first-order symmetric systems, and spectrally accurate error measures.

A FourierFunction stores coefficients a_k for |k| <= n_max on the
periodic interval [0, 2pi) with m components, as an array of shape
(2 n_max + 1, m) indexed by (k + n_max, component). The L2 norm is
sqrt(2 pi) times the coefficient norm.

The symbol operator for u_t + A u_x = 0 with symmetric A multiplies
mode k by -i k A; it is skew-Hermitian mode by mode, so the exact
evolution is an isometry and every deviation in a fully discrete run is
attributable to the time discretization and the initial truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dg_ops1d import operator_norm


@dataclass(frozen=True)
class FourierFunction:
    n_max: int
    coeffs: np.ndarray  # (2*n_max+1, m)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 2 or len(c) != 2 * self.n_max + 1:
            raise ValueError(
                f"coefficient array has shape {c.shape}, expected "
                f"({2 * self.n_max + 1}, components)"
            )
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def n_components(self) -> int:
        return self.coeffs.shape[-1]

    def norm(self) -> float:
        return float((2.0 * np.pi) ** 0.5 * np.linalg.norm(self.coeffs))


def wavenumbers(n_max: int) -> np.ndarray:
    return np.arange(-n_max, n_max + 1)


def _grid_values(f: Callable, n_pts: int) -> np.ndarray:
    """f on the uniform n_pts grid of [0, 2pi), shape (n_pts, components);
    a plain (n_pts,) return is read as a single component."""
    x = 2.0 * np.pi * np.arange(n_pts) / n_pts
    return np.asarray(f(x), dtype=complex).reshape(n_pts, -1)


def fourier_truncate(f: Callable, n_max: int) -> FourierFunction:
    """Coefficients a_k for |k| <= n_max by FFT on a uniform grid.

    The grid has 4 n_max + 5 points, so the result is alias-free for
    band-limited data up to 3 n_max + 4 and the aliasing floor for smooth
    data sits far below the truncation error. f maps a coordinate array
    to shape (..., m) for m components (a plain (...) return is read as a
    single component).
    """
    n_pts = 4 * n_max + 5
    spec = np.fft.fft(_grid_values(f, n_pts), axis=0) / n_pts
    return FourierFunction(n_max, spec[wavenumbers(n_max) % n_pts])


def evaluate_on_grid(u: FourierFunction, n_pts: int) -> np.ndarray:
    """Values on the uniform n_pts grid by zero-padded inverse FFT
    (exact synthesis, no aliasing). Shape (n_pts, m)."""
    if n_pts < 2 * u.n_max + 1:
        raise ValueError("grid too coarse to hold the spectrum")
    spec = np.zeros((n_pts, u.n_components), dtype=complex)
    spec[wavenumbers(u.n_max) % n_pts] = u.coeffs
    return np.fft.ifft(spec, axis=0) * n_pts


def grid_l2_error(u: FourierFunction, exact: Callable) -> float:
    """L2 distance to a callable by trapezoid quadrature on the uniform
    grid of max(128, 4 n_max + 9) points (spectrally accurate for smooth
    periodic integrands)."""
    n_pts = max(128, 4 * u.n_max + 9)
    vals = evaluate_on_grid(u, n_pts)
    ev = _grid_values(exact, n_pts)
    return float(np.sqrt(2.0 * np.pi / n_pts * np.sum(np.abs(vals - ev) ** 2)))


@dataclass(frozen=True)
class SymbolOperator:
    """Mode-diagonal operator a_k -> -i k A a_k.

    symbols[k + n_max] holds the per-mode matrix, precomputed at
    construction in the (modes, m, m) layout of LinearOperator.symbols.
    apply acts directly on coefficient arrays of shape (2 n_max + 1, m),
    so time steppers treat states as plain arrays.
    """

    n_max: int
    a: np.ndarray
    symbols: np.ndarray = None  # filled in __post_init__

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"the coefficient matrix must be square, got shape {a.shape}")
        if np.abs(a - a.T).max() > 1e-14 * max(1.0, np.abs(a).max()):
            raise ValueError("the coefficient matrix must be symmetric")
        k = wavenumbers(self.n_max).astype(float)
        sym = -1j * (k[:, None, None] * a)
        sym.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "symbols", sym)

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        return np.matmul(self.symbols, coeffs[..., None])[..., 0]

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the operator on flattened coefficient arrays."""
        size = self.symbols.size // self.symbols.shape[-1]
        return (size, size)

    def norm(self) -> float:
        """max over modes of the spectral norm of k A, by the per-mode
        SVD that operator_norm applies to every operator with symbols
        (exact, not an estimate)."""
        return operator_norm(self)


def skewness_defect(op: SymbolOperator, u: FourierFunction) -> float:
    """|Re <L u, u>| / |u|^2; zero up to roundoff for symmetric A."""
    lu = op.apply(u.coeffs)
    inner = 2.0 * np.pi * np.vdot(u.coeffs, lu)
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

