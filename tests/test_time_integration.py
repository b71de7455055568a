"""Taylor-coefficient Runge-Kutta schemes, the marcher, and the reference
exponentials. sympy reproduces the stability polynomials symbolically and
mpmath supplies extended-precision values for the growth factor."""

import math

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
import sympy

from rkdg_lab import (
    LinearOperator,
    Mesh1D,
    NumericalError,
    RKScheme,
    StabilityWarning,
    SymbolOperator,
    amplification_norm,
    assemble_high_order_lh,
    assemble_ultraweak_third,
    build_problem,
    custom_rk,
    evolve,
    expm_reference,
    operator_norm,
    resolve_scheme,
    rk_step,
    sigma_factor,
    solution_catalog,
    taylor_rk,
    two_step_rk4,
    validate_config,
)


# ---------------------------------------------------------------------------
# Scheme construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_taylor_coefficients_are_inverse_factorials(p):
    scheme = taylor_rk(p)
    assert scheme.stages == p
    assert scheme.order == p
    for i, a in enumerate(scheme.alphas):
        assert a == pytest.approx(1.0 / math.factorial(i), abs=0.0)


def test_two_step_scheme_is_squared_half_step():
    """The nine coefficients are those of (sum_{j<=4} (z/2)^j / j!)^2."""
    z = sympy.Symbol("z")
    half = sum((z / 2) ** j / sympy.factorial(j) for j in range(5))
    poly = sympy.Poly(sympy.expand(half * half), z)
    expected = [float(poly.coeff_monomial(z ** i)) for i in range(9)]
    scheme = two_step_rk4()
    assert scheme.stages == 8
    np.testing.assert_allclose(scheme.alphas, expected, rtol=1e-15)
    # the z^5 coefficient is 1/128, not 1/120, so the order stops at 4
    assert scheme.order == 4


def test_preset_lookup_and_rejection():
    assert resolve_scheme("rk4").alphas == (1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0)
    heun = resolve_scheme("heun")
    assert resolve_scheme(heun) is heun
    custom = resolve_scheme([1.0, 1.0, 0.4])
    assert custom.alphas == (1.0, 1.0, 0.4)
    assert custom.order == 1
    with pytest.raises(ValueError):
        resolve_scheme("rk19")


def test_custom_rk_requires_consistency():
    with pytest.raises(ValueError):
        custom_rk((2.0, 1.0))
    with pytest.raises(ValueError):
        custom_rk((1.0, 0.5))
    with pytest.raises(ValueError):
        custom_rk((1.0,))


def test_amplification_matches_mpmath_polynomial():
    scheme = resolve_scheme("ssp3")
    mpmath.mp.dps = 30
    rng = np.random.default_rng(21)
    for _ in range(5):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        ref = sum(
            mpmath.mpc(a) * mpmath.mpc(z) ** i for i, a in enumerate(scheme.alphas)
        )
        got = scheme.amplification(np.array([z]))[0]
        assert abs(got - complex(ref)) < 1e-14


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------


def test_rk_step_is_stability_polynomial_on_scalars():
    lam = -0.7
    op = lambda v: lam * v
    scheme = resolve_scheme("rk4")
    tau = 0.3
    u = rk_step(op, np.array([2.0]), tau, scheme)
    expected = 2.0 * scheme.amplification(np.array([tau * lam + 0j]))[0].real
    assert abs(u[0] - expected) < 1e-14


def test_rk_step_accepts_callables():
    scheme = resolve_scheme("heun")
    apply_l = lambda v: -2.0 * v
    u = rk_step(apply_l, np.array([1.0]), 0.1, scheme)
    assert abs(u[0] - (1.0 - 0.2 + 0.02)) < 1e-15


def test_evolve_step_snapping():
    op = lambda v: 0.0 * v
    scheme = resolve_scheme("euler")
    res = evolve(op, np.array([1.0]), 0.3, 1.0, scheme, record_norms=True)
    assert res.n_steps == 4
    assert res.final_step == pytest.approx(0.1)
    assert len(res.norms) == 5
    exact = evolve(op, np.array([1.0]), 0.25, 1.0, scheme)
    assert exact.n_steps == 4
    assert exact.final_step == pytest.approx(0.25)


def test_evolve_matches_power_of_amplification():
    lam = -1.3
    scheme = resolve_scheme("rk4")
    tau = 0.25
    res = evolve(lambda v: lam * v, np.array([1.0]), tau, 1.0, scheme)
    r = scheme.amplification(np.array([tau * lam + 0j]))[0].real
    assert abs(res.state[0] - r ** 4) < 1e-13


def test_evolve_validates_inputs():
    op = lambda v: 0.0 * v
    with pytest.raises(ValueError):
        evolve(op, np.array([1.0]), 0.0, 1.0, resolve_scheme("euler"))
    with pytest.raises(ValueError):
        evolve(op, np.array([1.0]), 0.1, -1.0, resolve_scheme("euler"))


def test_evolve_raises_when_the_march_diverges():
    """1001^400 overflows to inf: a diverged march is a numerical failure,
    never a non-finite state handed back to the caller."""
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError, match="diverged"):
        evolve(lambda v: 1e3 * v, np.ones(3), 1.0, 400.0, resolve_scheme("euler"))


def test_evolve_stops_a_diverged_march_early():
    """The level-12 operator of the forward-Euler divergence repro (ldg
    k=3, tau 0.25) first overflows at step 345. The state is checked at
    every power-of-two step count, so a 4,000-step march stops at 512."""
    doc = {
        "schema": "rkdg-lab-config/1",
        "study": "spatial",
        "solution": "advection_sin",
        "scheme": {"family": "ldg", "degree": 3},
        "grid": {"levels": [8, 12]},
        "time": {"integrator": "euler", "tau": 0.25, "t_final": 100},
    }
    config = validate_config(doc)
    problem = build_problem(config, solution_catalog()["advection_sin"], 12)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NumericalError, match="not finite after 512 steps"
    ):
        evolve(problem.op, problem.prepare(0.0), 0.25, 1000.0, resolve_scheme("euler"))


def test_cfl_gate_warns_or_raises():
    mesh = Mesh1D.uniform(16)
    op = assemble_high_order_lh(mesh, 1, 1, -1.0, theta0=1.0)
    u0 = np.ones(op.n)
    scheme = resolve_scheme("ssp3")
    with pytest.warns(StabilityWarning):
        evolve(op, u0, 1.0, 1.0, scheme, cfl_limit=1e-3)
    with pytest.raises(NumericalError):
        evolve(op, u0, 1.0, 1.0, scheme, cfl_limit=1e-3, strict_cfl=True)


# ---------------------------------------------------------------------------
# The bound step is bitwise plain Horner
# ---------------------------------------------------------------------------


def reference_step(apply_l, u, tau, alphas):
    """One step of R(tau L) u by Horner's rule, written out plainly."""
    v = alphas[-1] * u
    for a in alphas[-2::-1]:
        v = a * u + tau * apply_l(v)
    return v


def assert_march_is_plain_horner(op, apply_l, u0, tau, t_final, scheme):
    """evolve (with a short last step and recorded norms) reproduces the
    plain march bit for bit."""
    res = evolve(op, u0, tau, t_final, scheme, record_norms=True)
    assert res.final_step < tau
    u = u0
    norms = [float(np.linalg.norm(u))]
    for length in [tau] * (res.n_steps - 1) + [res.final_step]:
        u = reference_step(apply_l, u, length, scheme.alphas)
        norms.append(float(np.linalg.norm(u)))
    assert res.state.dtype == u.dtype
    assert np.array_equal(res.state, u)
    assert res.norms == tuple(norms)


def ultraweak_k3(n):
    op = assemble_ultraweak_third(Mesh1D.uniform(n), 3)
    return op, 1.0 / operator_norm(op)


def test_evolve_is_plain_horner_on_a_real_sparse_operator():
    op, tau = ultraweak_k3(8)
    u0 = np.random.default_rng(3).standard_normal(op.n)
    assert_march_is_plain_horner(
        op, lambda v: op.mat @ v, u0, tau, 40.3 * tau, resolve_scheme("ssp3")
    )


def test_evolve_is_plain_horner_on_a_complex_state():
    op, tau = ultraweak_k3(8)
    rng = np.random.default_rng(4)
    u0 = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
    assert_march_is_plain_horner(
        op, lambda v: op.mat @ v, u0, tau, 40.3 * tau, resolve_scheme("ssp3")
    )


def test_evolve_is_plain_horner_on_a_symbol_operator():
    """The reference applies the symbols by einsum, the formulation the
    matmul in SymbolOperator.apply must match."""
    op = SymbolOperator(6, 1, (np.array([[0.0, 1.0], [1.0, 0.0]]),))
    rng = np.random.default_rng(5)
    shape = op.symbols.shape[:-1]
    u0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    apply_l = lambda v: np.einsum("...ij,...j->...i", op.symbols, v)
    assert_march_is_plain_horner(op, apply_l, u0, 0.1, 2.05, resolve_scheme("rk4"))


def test_evolve_is_plain_horner_on_a_callable():
    apply_l = lambda v: np.roll(v, 1) - 0.7 * v
    u0 = np.random.default_rng(6).standard_normal(10)
    assert_march_is_plain_horner(apply_l, apply_l, u0, 0.3, 4.0, resolve_scheme("rk4"))


@pytest.mark.parametrize("kind", ["operator", "csr", "complex"])
def test_rk_step_is_plain_horner(kind):
    op, tau = ultraweak_k3(8)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(op.n)
    if kind == "complex":
        u = u + 1j * rng.standard_normal(op.n)
    scheme = resolve_scheme("two_step_rk4")
    got = rk_step(op.mat if kind == "csr" else op, u, tau, scheme)
    assert np.array_equal(got, reference_step(lambda v: op.mat @ v, u, tau, scheme.alphas))


def test_rk_step_kernel_benchmark(benchmark):
    """One ssp3 step on the ultraweak_k3 operator at n = 20 (80 dofs), the
    finest level of the study that takes the most steps."""
    op, tau = ultraweak_k3(20)
    u = np.random.default_rng(8).standard_normal(op.n)
    scheme = resolve_scheme("ssp3")
    got = benchmark.pedantic(rk_step, args=(op, u, tau, scheme), rounds=20, iterations=50)
    assert np.array_equal(got, reference_step(lambda v: op.mat @ v, u, tau, scheme.alphas))


# ---------------------------------------------------------------------------
# Reference exponential and growth factors
# ---------------------------------------------------------------------------


def test_expm_reference_matches_eigendecomposition():
    rng = np.random.default_rng(33)
    a = rng.standard_normal((30, 30))
    sym = 0.5 * (a + a.T)
    w, v = np.linalg.eigh(sym)
    ref = v @ np.diag(np.exp(0.7 * w)) @ v.T
    got = expm_reference(sym, 0.7)
    np.testing.assert_allclose(got, ref, atol=1e-12 * np.abs(ref).max())


def test_expm_reference_rejects_large_operators():
    big = sp.identity(2500, format="csr")
    with pytest.raises(ValueError):
        expm_reference(LinearOperator(big), 1.0)


def test_amplification_norm_on_skew_operator():
    """For a skew matrix the eigenvalues sit on the imaginary axis, so the
    norm of R(tau L) is max_s |R(i tau s)| over the spectrum."""
    rng = np.random.default_rng(8)
    a = rng.standard_normal((40, 40))
    skew = 0.5 * (a - a.T)
    op = LinearOperator(sp.csr_matrix(skew))
    scheme = resolve_scheme("rk4")
    tau = 0.2
    eigs = np.linalg.eigvals(skew)
    ref = np.max(np.abs(scheme.amplification(tau * eigs)))
    got = amplification_norm(op, scheme, tau)
    assert abs(got - ref) < 1e-10


def test_amplification_norm_on_symbol_operator():
    """The exchange-coupled symbol -i k [[0, 1], [1, 0]] is normal with
    eigenvalues -+ i k, so the norm of R(tau L) is the largest
    |R(+- i tau k)| over the modes. tau * n_max lies past the rk4
    stability boundary, so the maximum is not the trivial k = 0 value."""
    n_max, tau = 6, 0.55
    op = SymbolOperator(n_max, 1, (np.array([[0.0, 1.0], [1.0, 0.0]]),))
    scheme = resolve_scheme("rk4")
    k = np.arange(-n_max, n_max + 1)
    ref = np.max(np.abs(scheme.amplification(np.concatenate([1j * tau * k, -1j * tau * k]))))
    assert ref > 1.5
    assert amplification_norm(op, scheme, tau) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize(
    "a,t",
    [(-3.0, 0.5), (-1.0, 2.0), (1e-4, 1.3), (2.0, 0.05), (-1e-9, 1.0), (-1e-13, 0.7)],
)
def test_sigma_factor_against_mpmath(a, t):
    mpmath.mp.dps = 40
    ref = float((mpmath.expm1(mpmath.mpf(a) * t)) / mpmath.mpf(a))
    assert abs(sigma_factor(a, t) - ref) <= 1e-14 * abs(ref)


def test_sigma_factor_limits():
    assert sigma_factor(0.0, 1.7) == 1.7
    assert sigma_factor(0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        sigma_factor(1.0, -0.1)


def test_scheme_rejects_malformed_coefficients():
    with pytest.raises(ValueError):
        RKScheme((), name="empty")
