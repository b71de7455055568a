"""Time integration for linear semidiscrete systems u' = L u.

A scheme here is the polynomial it applies per step: one step of any
explicit Runge-Kutta method on a linear autonomous system reduces to

    u^{n+1} = R(tau L) u^n,     R(z) = sum_{i=0}^{s} alpha_i z^i,

so schemes are represented by their coefficient tuple (alpha_0..alpha_s)
and applied by Horner's rule with matrix-vector products only. The
linear order is read off the coefficients: p is the largest index
through which alpha_i = 1/i!.

Each march binds its step v -> tau L v once (`_scaled_apply`); for a
real CSR operator that is scipy's CSR matvec kernel, so every state is
bitwise the one plain Horner with `tau * (L @ v)` gives, without the
per-product scipy.sparse dispatch. L and tau are never folded into a
precomputed R(tau L): a rounded R applied N times drifts by about N eps,
Horner's per-step rounding by about sqrt(N) eps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

# The kernel behind `csr_matrix @ vector` (scipy's _matmul_vector calls it
# on a zeroed output), bound directly to skip the per-product dispatch.
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec

from .core_fem import NumericalError
from .dg_ops1d import LinearOperator, _mode_stack, operator_norm

#: Unknowns up to which `amplification_norm` forms a dense R(tau L) (for
#: operators without symbols) and `expm_reference` a dense exp(tL). Krylov
#: cannot replace the former: the singular values of R(tau L) cluster at 1.
DENSE_LIMIT = 2000


def _horner(alphas: Sequence[float], u, apply: Callable):
    """sum_i alpha_i A^i u by Horner's rule, where apply(v) = A v.

    apply must return a new array (or scalar): the sum accumulates into
    it in place.
    """
    v = alphas[-1] * u
    for a in alphas[-2::-1]:
        v = apply(v)
        v += u if a == 1.0 else a * u
    return v


def _linear_order(alphas: Sequence[float]) -> int:
    p = -1
    for i, a in enumerate(alphas):
        target = 1.0 / math.factorial(i)
        if abs(a - target) <= 1e-13 * target:
            p = i
        else:
            break
    return p


@dataclass(frozen=True)
class RKScheme:
    """Stability-polynomial form of an explicit RK scheme."""

    alphas: tuple
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if len(self.alphas) < 2:
            raise ValueError("a scheme needs at least alpha_0 and alpha_1")

    @property
    def stages(self) -> int:
        return len(self.alphas) - 1

    @property
    def order(self) -> int:
        """Largest p with alpha_i = 1/i! for all i <= p (capped at the
        polynomial degree)."""
        return _linear_order(self.alphas)

    def amplification(self, z: np.ndarray) -> np.ndarray:
        """R(z) for scalar or array z (complex welcome)."""
        z = np.asarray(z)
        return _horner(self.alphas, np.ones_like(z, dtype=complex), lambda v: z * v)


def taylor_rk(p: int) -> RKScheme:
    """The degree-p truncated exponential: alpha_i = 1/i! for i <= p."""
    if p < 1:
        raise ValueError("order must be at least 1")
    return RKScheme(tuple(1.0 / math.factorial(i) for i in range(p + 1)), name=f"taylor{p}")


def custom_rk(alphas: Sequence[float], name: str = "custom") -> RKScheme:
    """A scheme from raw stability coefficients.

    Requires alpha_0 = 1 (consistency of the update with the identity at
    tau = 0) and alpha_1 = 1 (first order); everything else is free.
    """
    alphas = tuple(float(a) for a in alphas)
    if len(alphas) < 2:
        raise ValueError("need at least (alpha_0, alpha_1)")
    if alphas[0] != 1.0:
        raise ValueError(f"alpha_0 must be 1, got {alphas[0]!r}")
    if abs(alphas[1] - 1.0) > 1e-13:
        raise ValueError(f"alpha_1 must be 1 for a consistent scheme, got {alphas[1]!r}")
    return RKScheme(alphas, name=name)


def two_step_rk4() -> RKScheme:
    """Two half-steps of the classical fourth-order scheme merged into one
    polynomial: R(z) = R4(z/2)^2, degree 8, still order 4 (the z^5
    coefficient is 1/128, not 1/120)."""
    alphas = (
        1.0,
        1.0,
        1.0 / 2.0,
        1.0 / 6.0,
        1.0 / 24.0,
        1.0 / 128.0,
        5.0 / 4608.0,
        1.0 / 9216.0,
        1.0 / 147456.0,
    )
    return RKScheme(alphas, name="two_step_rk4")


#: Named schemes accepted by configuration files. heun, ssp3, and rk4
#: reduce to the truncated exponential of matching order on linear
#: problems, which is the form stored here.
PRESET_SCHEMES: dict[str, Callable[[], RKScheme]] = {
    "euler": lambda: taylor_rk(1),
    "heun": lambda: RKScheme((1.0, 1.0, 0.5), name="heun"),
    "ssp3": lambda: RKScheme((1.0, 1.0, 0.5, 1.0 / 6.0), name="ssp3"),
    "rk4": lambda: RKScheme((1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0), name="rk4"),
    "taylor2": lambda: taylor_rk(2),
    "taylor3": lambda: taylor_rk(3),
    "taylor4": lambda: taylor_rk(4),
    "two_step_rk4": two_step_rk4,
}


def resolve_scheme(spec) -> RKScheme:
    """Accept an RKScheme, a preset name, or a coefficient sequence."""
    if isinstance(spec, RKScheme):
        return spec
    if isinstance(spec, str):
        try:
            return PRESET_SCHEMES[spec]()
        except KeyError:
            raise ValueError(
                f"unknown scheme {spec!r}; known: {sorted(PRESET_SCHEMES)}"
            ) from None
    return custom_rk(tuple(spec))


def _scaled_apply(op, tau: float, u: np.ndarray) -> Callable:
    """v -> tau * L v for states shaped and typed like u, bound once.

    op is a callable, an object with an apply method, or a matrix. A
    real CSR matrix (bare or in a LinearOperator) acting on a real
    vector runs the CSR matvec kernel directly; the sums and their order
    are those of `mat @ v`, so the result is bitwise `tau * (mat @ v)`.
    Everything else falls back to exactly that expression.
    """
    mat = op.mat if isinstance(op, LinearOperator) else op
    if (
        sp.issparse(mat)
        and mat.format == "csr"
        and mat.dtype == np.float64
        and u.dtype == np.float64
        and u.shape == (mat.shape[1],)
    ):
        n_rows, n_cols = mat.shape
        indptr, indices, data = mat.indptr, mat.indices, mat.data

        def apply(v: np.ndarray) -> np.ndarray:
            out = np.zeros(n_rows)
            _csr_matvec(n_rows, n_cols, indptr, indices, data, v, out)
            out *= tau
            return out

        return apply
    if callable(op):
        apply_l = op
    elif hasattr(op, "apply"):
        apply_l = op.apply
    else:
        apply_l = mat.__matmul__
    return lambda v: tau * apply_l(v)


def rk_step(op, u: np.ndarray, tau: float, scheme: RKScheme) -> np.ndarray:
    """One step u -> R(tau L) u by Horner's rule; s applications of L."""
    return _horner(scheme.alphas, u, _scaled_apply(op, tau, np.asarray(u)))


class StabilityWarning(UserWarning):
    pass


def cfl_violation(tau: float, op_norm: float, cfl_limit: float) -> str | None:
    """What is wrong when tau * |L| exceeds the budget cfl_limit, or None."""
    if tau * op_norm > cfl_limit * (1 + 1e-12):
        return f"tau * |L| = {tau * op_norm:.4e} exceeds the stability budget {cfl_limit:.4e}"
    return None


@dataclass(frozen=True)
class EvolveResult:
    state: np.ndarray
    n_steps: int
    tau: float
    final_step: float          # length of the last step (== tau unless shortened)
    norms: tuple | None = None  # per-step coefficient norms if recorded


def evolve(
    op,
    u0: np.ndarray,
    tau: float,
    t_final: float,
    scheme: RKScheme,
    *,
    cfl_limit: float | None = None,
    op_norm: float | None = None,
    strict_cfl: bool = False,
    record_norms: bool = False,
) -> EvolveResult:
    """March u' = L u from 0 to t_final with uniform steps of length tau,
    finishing with one shorter step when tau does not divide t_final.

    When cfl_limit is given, tau * |L| is checked against it once up
    front (|L| measured unless op_norm passes it in); a violation warns,
    or raises NumericalError under strict_cfl. A march whose final state
    is not finite has diverged and raises NumericalError; the state is
    also checked whenever the step count is a power of two, so a march
    that overflows stops within twice its steps-to-overflow.
    """
    if tau <= 0 or t_final < 0:
        raise ValueError("step size must be positive and horizon nonnegative")
    if cfl_limit is not None:
        msg = cfl_violation(tau, operator_norm(op) if op_norm is None else op_norm, cfl_limit)
        if msg is not None:
            if strict_cfl:
                raise NumericalError(msg)
            warnings.warn(msg, StabilityWarning, stacklevel=2)

    n_full = int(np.floor(t_final / tau + 1e-12))
    remainder = t_final - n_full * tau
    if remainder < 1e-12 * max(tau, 1.0):
        remainder = 0.0

    u = np.array(u0, copy=True)
    norms = [float(np.linalg.norm(u))] if record_norms else None
    n_steps = n_full + (1 if remainder > 0 else 0)
    step = _scaled_apply(op, tau, u)
    k = 0
    for k in range(1, n_steps + 1):
        if k > n_full:
            step = _scaled_apply(op, remainder, u)
        u = _horner(scheme.alphas, u, step)
        if record_norms:
            norms.append(float(np.linalg.norm(u)))
        if k & (k - 1) == 0 and not np.isfinite(u).all():
            break
    if not np.isfinite(u).all():
        raise NumericalError(f"march diverged: the state is not finite after {k} steps")
    return EvolveResult(
        state=u,
        n_steps=n_steps,
        tau=tau,
        final_step=remainder if remainder > 0 else tau,
        norms=tuple(norms) if record_norms else None,
    )


def _dense(op, what: str) -> np.ndarray:
    """op as a dense array, refused above DENSE_LIMIT unknowns."""
    mat = op.mat if isinstance(op, LinearOperator) else op
    if mat.shape[0] > DENSE_LIMIT:
        raise ValueError(f"{what} is dense-only; {mat.shape[0]} unknowns exceed {DENSE_LIMIT}")
    return mat.toarray() if hasattr(mat, "toarray") else np.asarray(mat)


def amplification_norm(op, scheme: RKScheme, tau: float) -> float:
    """Spectral norm of R(tau L).

    Exact when op has symbols (a SymbolOperator, or a LinearOperator on
    a uniform periodic mesh): R is applied to every per-mode matrix by
    one batched Horner sweep and the largest per-mode norm is returned.
    Other operators are evaluated densely, up to DENSE_LIMIT unknowns.
    """
    symbols = getattr(op, "symbols", None)
    if symbols is not None:
        stack = _mode_stack(symbols)
    else:
        stack = _dense(op, "the amplification norm")[None]
    eye = np.broadcast_to(np.eye(stack.shape[-1]), stack.shape)
    r = _horner(scheme.alphas, eye, lambda v: tau * (stack @ v))
    return float(np.linalg.norm(r, 2, axis=(-2, -1)).max())


def expm_reference(op, t: float, v: np.ndarray) -> tuple[np.ndarray, float]:
    """exp(tL) v from the dense matrix exponential, cross-checked by
    `expm_multiply`, and the relative gap between the two.

    The reference is `scipy.linalg.expm(t * dense) @ v`. The check is
    scipy.sparse.linalg.expm_multiply (Al-Mohy & Higham) on the explicit
    matrix, a different algorithm: a semigroup check with expm(tL/2)
    cannot disagree, since scaling and squaring builds expm(tL) from the
    same Pade factor. A gap |check - ref| / |ref| above 1e-9 raises
    NumericalError. Refused above DENSE_LIMIT unknowns.
    """
    dense = _dense(op, "the reference exponential")
    ref = scipy.linalg.expm(t * dense) @ v
    mat = op.mat if isinstance(op, LinearOperator) else op
    check = expm_multiply(t * (mat if sp.issparse(mat) else dense), v)
    gap = float(np.linalg.norm(check - ref) / max(np.linalg.norm(ref), 1e-300))
    if gap > 1e-9:
        raise NumericalError(
            f"matrix exponential disagrees with expm_multiply: relative gap {gap:.3e}"
        )
    return ref, gap


def sigma_factor(a: float, t: float) -> float:
    """sigma(a, t) = (exp(a t) - 1) / a, the growth envelope factor; the
    limit value t is returned at a = 0 and expm1 keeps the small-|a t|
    regime fully accurate."""
    if t < 0:
        raise ValueError("sigma_factor needs t >= 0")
    if a == 0.0:
        return float(t)
    return float(np.expm1(a * t) / a)
