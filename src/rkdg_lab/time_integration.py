"""Time integration for linear semidiscrete systems u' = L u.

A scheme here is the polynomial it applies per step: one step of any
explicit Runge-Kutta method on a linear autonomous system reduces to

    u^{n+1} = R(tau L) u^n,     R(z) = sum_{i=0}^{s} alpha_i z^i,

so schemes are represented by their coefficient tuple (alpha_0..alpha_s)
and applied by Horner's rule with matrix-vector products only. The
linear order is read off the coefficients: p is the largest index
through which alpha_i = 1/i!.

The march is lockstep (`evolve_levels`): the levels of a study advance
together as one stacked state, each step one Horner sweep whose products
are one call of scipy's CSR matvec kernel on the stacked operator (or one
batched matmul of the stacked mode matrices), scaled row by row by each
level's step length. Every state is bitwise the one plain Horner with
`tau * (L @ v)` gives on the level alone, without the per-product
scipy.sparse dispatch and without one Python loop per level; `evolve` is
the batch of one. A level is a LinearOperator on a real vector or a
SymbolOperator on its complex mode coefficients. L and tau are never
folded into a precomputed R(tau L): a rounded R applied N times drifts
by about N eps, Horner's per-step rounding by about sqrt(N) eps. Steps
are checked against the stability budget by `run_study` (`check_cfl`),
not by the march.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

# The kernel behind `csr_matrix @ vector` (scipy's _matmul_vector calls it
# on a zeroed output), bound directly to skip the per-product dispatch.
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec

from .core_fem import NumericalError
from .dg_ops1d import LinearOperator
from .spectral import SymbolOperator

#: Unknowns up to which the operators without symbols (perturbed meshes)
#: are measured densely: R(tau L) in `amplification_norm` and the exp(tL)
#: that checks `expm_reference`. The cap is about cost, not reach: eigsh
#: on R^T R matches the dense |R(tau L)| within 1.4e-12, but below 2,000
#: unknowns it is slower than dense where the top of R^T R clusters.
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


def custom_rk(alphas: Sequence[float]) -> RKScheme:
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
    return RKScheme(alphas, name="custom")


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


def _stack_kind(op, u: np.ndarray):
    """What the level (op, u) stacks with: "csr" for a LinearOperator with
    a real matrix acting on a real vector of its size, ("modes", m) for a
    SymbolOperator with m components acting on its complex coefficient
    array. Any other pair raises ValueError."""
    pair = (type(op), u.dtype)
    if pair == (LinearOperator, np.float64) and op.mat.dtype == u.dtype and u.shape == (op.n,):
        return "csr"
    if pair == (SymbolOperator, np.complex128) and u.shape == op.symbols.shape[:-1]:
        return ("modes", op.symbols.shape[-1])
    raise ValueError(
        "a march takes a real LinearOperator on a real vector of its size, or a "
        "SymbolOperator on a complex coefficient array of its shape; got a "
        f"{type(op).__name__} on a {u.dtype} array of shape {u.shape}"
    )


class _Stack(NamedTuple):
    """Levels marched as one state u.

    Level j owns rows stops[j-1]:stops[j] of h, the per-row step lengths,
    and take(u, j) is its state. Stacked levels lie along u's first axis,
    so levels 0..j are the prefix u[:stops[j]]; bind(r) returns
    v -> h L v on a prefix of r rows.
    """

    u: np.ndarray
    stops: list
    h: np.ndarray
    bind: Callable
    take: Callable


def _stack(kind, ops: Sequence, states: Sequence[np.ndarray]) -> _Stack:
    """Levels of one _stack_kind as one _Stack, applied without dispatch.

    A CSR stack is the levels' sp.block_diag. LinearOperator stores
    canonical CSR, whose rows block_diag keeps in order, so the stack's
    indptr, indices and data are the levels' own concatenated with
    offsets, and scipy's CSR matvec kernel sums each row exactly as for
    the level alone. A modes stack concatenates the per-mode matrices, and
    matmul multiplies each on its own. `out *= h` is then the IEEE
    product `tau * (L v)` row by row.
    """
    u = np.concatenate(states)
    stops = list(accumulate(len(s) for s in states))
    if kind == "csr":
        mat = sp.block_diag([op.mat for op in ops], format="csr")
        indptr, indices, data = mat.indptr, mat.indices, mat.data

        def bind(rows: int) -> Callable:
            hr = h[:rows]

            def apply(v: np.ndarray) -> np.ndarray:
                out = np.zeros(rows)
                _csr_matvec(rows, rows, indptr, indices, data, v, out)
                out *= hr
                return out

            return apply
    else:
        mats = np.concatenate([op.symbols for op in ops])

        def bind(rows: int) -> Callable:
            mr, hr = mats[:rows], h[:rows, None]

            def apply(v: np.ndarray) -> np.ndarray:
                out = np.matmul(mr, v[..., None])[..., 0]
                out *= hr
                return out

            return apply

    h = np.empty(stops[-1])
    starts = [0] + stops[:-1]
    return _Stack(u, stops, h, bind, lambda u, j: u[starts[j]:stops[j]])


class StabilityWarning(UserWarning):
    pass


def check_cfl(levels: Sequence[tuple], cfl_limit: float, strict_cfl: bool) -> list[str]:
    """The violations, in level order, among levels given as (label, tau,
    |L|) whose tau * |L| exceeds the budget cfl_limit; `run_study` checks
    its levels here before it marches them. The first violation raises
    NumericalError under strict_cfl; otherwise each warns a
    StabilityWarning at the line that called check_cfl's caller."""
    msgs = []
    for label, tau, nrm in levels:
        if tau * nrm > cfl_limit * (1 + 1e-12):
            msg = (f"level {label}: tau * |L| = {tau * nrm:.4e} exceeds the stability "
                   f"budget {cfl_limit:.4e}")
            if strict_cfl:
                raise NumericalError(msg)
            warnings.warn(msg, StabilityWarning, stacklevel=3)
            msgs.append(msg)
    return msgs


@dataclass(frozen=True)
class EvolveResult:
    state: np.ndarray
    n_steps: int
    tau: float
    final_step: float  # length of the last step (== tau unless shortened)


def _step_plan(tau: float, t_final: float) -> tuple[int, float]:
    """(number of steps, length of the last) for uniform steps of length
    tau over t_final, the last shortened when tau does not divide it."""
    n_full = int(np.floor(t_final / tau + 1e-12))
    remainder = t_final - n_full * tau
    if remainder < 1e-12 * max(tau, 1.0):
        return n_full, tau
    return n_full + 1, remainder


def evolve_levels(
    ops: Sequence,
    states: Sequence[np.ndarray],
    taus: Sequence[float],
    t_final: float,
    scheme: RKScheme,
) -> list[EvolveResult]:
    """March every level u' = L_i u from states[i] to t_final in lockstep,
    with uniform steps of length taus[i] and one shorter last step when
    taus[i] does not divide t_final.

    Each level is a LinearOperator on a real vector or a SymbolOperator
    on its complex coefficients (see _stack_kind); any other pair raises
    ValueError. The levels of one kind march as one stack, ordered by
    descending step count: each step is one Horner sweep whose products
    are one kernel call on the stacked operator. A finished level leaves
    the stack, so the levels still marching are always a prefix of it.
    Every state is bitwise the one marching its level alone gives.

    No step is checked against the stability budget (see check_cfl). A
    level whose state is not finite when its step count is a power of
    two, or at its end, has diverged and leaves the stack, and so do the
    levels after it in level order. Once the rest have finished, the
    first diverged level raises NumericalError with its own step count.
    """
    if t_final < 0 or any(tau <= 0 for tau in taus):
        raise ValueError("step size must be positive and horizon nonnegative")
    plans = [_step_plan(tau, t_final) for tau in taus]
    counts = [n for n, _ in plans]
    finals = [np.array(u, copy=True) for u in states]
    kinds = [_stack_kind(op, u) for op, u in zip(ops, finals)]
    diverged = {i: 0 for i, u in enumerate(finals) if not counts[i] and not np.isfinite(u).all()}

    def march(group: list, k: int) -> tuple[list, int]:
        """Advance the levels in group (by descending step count) from
        step k, where their states are finals[i], to their ends. Returns
        the levels left to march and their step when some diverged (not
        marched by recursion: a closure calling itself is a reference
        cycle, which keeps every operator and state alive until the
        cyclic collector runs)."""
        stack = _stack(kinds[group[0]], [ops[i] for i in group], [finals[i] for i in group])
        starts = [0] + stack.stops[:-1]
        for i, lo, hi in zip(group, starts, stack.stops):
            stack.h[lo:hi] = taus[i]
        u, active = stack.u, len(group)
        while active:
            finish = counts[group[active - 1]]
            ending = [j for j in range(active) if counts[group[j]] == finish]
            apply = stack.bind(stack.stops[active - 1])
            while k < finish:
                k += 1
                if k == finish:
                    for j in ending:
                        stack.h[starts[j]:stack.stops[j]] = plans[group[j]][1]
                u = _horner(scheme.alphas, u, apply)
                if k & (k - 1) == 0 and not np.isfinite(u).all():
                    for j in range(active):
                        finals[group[j]] = stack.take(u, j)
                        if not np.isfinite(finals[group[j]]).all():
                            diverged[group[j]] = k
                    return group[:active], k
            for j in ending:
                finals[group[j]] = stack.take(u, j)
                if not np.isfinite(finals[group[j]]).all():
                    diverged[group[j]] = k
            active -= len(ending)
            if active:
                u = u[: stack.stops[active - 1]]
        return [], k

    groups: dict = {}
    for i in sorted(range(len(ops)), key=lambda i: -counts[i]):
        if counts[i]:
            groups.setdefault(kinds[i], []).append(i)
    for group in groups.values():
        k = 0
        # A diverged level stops the levels after it: the error is its own.
        while group := [i for i in group if i < min(diverged, default=len(ops))]:
            group, k = march(group, k)
    if diverged:
        first = min(diverged)
        raise NumericalError(
            f"march diverged: the state is not finite after {diverged[first]} steps"
        )
    return [EvolveResult(finals[i], counts[i], taus[i], plans[i][1]) for i in range(len(ops))]


def evolve(
    op,
    u0: np.ndarray,
    tau: float,
    t_final: float,
    scheme: RKScheme,
) -> EvolveResult:
    """March u' = L u from 0 to t_final with uniform steps of length tau,
    finishing with one shorter step when tau does not divide t_final:
    evolve_levels on one level, which takes the same (op, state) pairs.

    A march whose final state is not finite has diverged and raises
    NumericalError; the state is also checked whenever the step count is
    a power of two, so a march that overflows stops within twice its
    steps-to-overflow.
    """
    (result,) = evolve_levels([op], [u0], [tau], t_final, scheme)
    return result


def _dense(op: LinearOperator, what: str) -> np.ndarray:
    """op's matrix as a dense array, refused above DENSE_LIMIT unknowns."""
    if op.n > DENSE_LIMIT:
        raise ValueError(f"{what} is dense-only; {op.n} unknowns exceed {DENSE_LIMIT}")
    return op.dense()


def _conjugate_half(op) -> np.ndarray:
    """op's per-mode matrices, one mode of each conjugate pair when op is
    real: modes k and -k of a real operator are conjugate, and so are
    their R(tau L) blocks and norms. A SymbolOperator (its matrix is real)
    keeps k >= 0; a LinearOperator with a real matrix keeps modes 0..n//2
    along the last cell axis of its layout, every mode along the others.
    Any other operator keeps every mode."""
    if isinstance(op, SymbolOperator):
        return op.symbols[op.n_max:]
    if not np.isrealobj(op.mat):
        return op.symbols
    shape, cell_axes = op.layout
    cells = tuple(shape[ax] for ax in cell_axes)
    m = op.symbols.shape[-1]
    return op.symbols.reshape(cells + (m, m))[..., : cells[-1] // 2 + 1, :, :]


def amplification_norm(op, scheme: RKScheme, tau: float) -> float:
    """Spectral norm of R(tau L).

    Exact when op has symbols (a SymbolOperator, or a LinearOperator on
    a uniform periodic mesh): R is applied to the per-mode matrices by
    one batched Horner sweep and the largest per-mode norm is returned.
    A real operator is measured on one mode of each conjugate pair (see
    _conjugate_half). Other operators are evaluated densely, up to
    DENSE_LIMIT unknowns. Each norm is the square root of the top
    eigenvalue of R^H R, clamped at zero against rounding.
    """
    if op.symbols is not None:
        stack = _conjugate_half(op)
    else:
        stack = _dense(op, "the amplification norm")[None]
    eye = np.broadcast_to(np.eye(stack.shape[-1]), stack.shape)
    r = _horner(scheme.alphas, eye, lambda v: tau * (stack @ v))
    top = np.linalg.eigvalsh(np.swapaxes(r.conj(), -1, -2) @ r)[..., -1].max()
    return float(np.sqrt(max(top, 0.0)))


def _expm_multiply(a, v: np.ndarray) -> np.ndarray:
    """scipy's expm_multiply(a, v) on a fixed seed of numpy's global RNG,
    from which its onenormest draws, with the caller's state restored:
    bitwise the same on every call."""
    state = np.random.get_state()
    np.random.seed(0)
    try:
        return expm_multiply(a, v)
    finally:
        np.random.set_state(state)


def expm_reference(op: LinearOperator, t: float, v: np.ndarray) -> tuple[np.ndarray, float]:
    """exp(tL) v from `expm_multiply`, cross-checked by an independent
    evaluation, and the relative gap between the two.

    The reference is scipy.sparse.linalg.expm_multiply (Al-Mohy & Higham)
    on the operator's sparse matrix; a SymbolOperator, which has none, is
    refused with ValueError. An operator with symbols (on a uniform
    periodic mesh) is checked mode by mode: one batched
    `scipy.linalg.expm(t * symbols)` applied through
    LinearOperator.apply_modes. Any other operator is checked against the
    dense `scipy.linalg.expm(t * dense) @ v`, refused above DENSE_LIMIT
    unknowns. A gap |check - ref| / |ref| above 1e-9 raises
    NumericalError.
    """
    if isinstance(op, SymbolOperator):
        raise ValueError("temporal studies need a matrix operator; a SymbolOperator has none")
    if op.symbols is not None:
        check = op.apply_modes(scipy.linalg.expm(t * op.symbols), v)
    else:
        check = scipy.linalg.expm(t * _dense(op, "the reference exponential's check")) @ v
    ref = _expm_multiply(t * op.mat, v)
    gap = float(np.linalg.norm(check - ref) / max(np.linalg.norm(ref), 1e-300))
    if gap > 1e-9:
        check_kind = "dense" if op.symbols is None else "per-mode"
        raise NumericalError(
            f"the {check_kind} exponential disagrees with expm_multiply: relative gap {gap:.3e}"
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
