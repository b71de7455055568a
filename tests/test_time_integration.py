"""Taylor-coefficient Runge-Kutta schemes, the marcher, and the reference
exponentials. sympy reproduces the stability polynomials symbolically and
mpmath supplies extended-precision values for the growth factor and the
reference exponential."""

import inspect
import math
import os

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import expm_multiply

from rkdg_lab import (
    LinearOperator,
    Mesh1D,
    Mesh2D,
    NumericalError,
    RKScheme,
    StabilityWarning,
    SymbolOperator,
    amplification_norm,
    assemble_advection_2d,
    assemble_central_advection,
    assemble_high_order_lh,
    assemble_ultraweak_third,
    assemble_wave_alphabeta,
    build_problem,
    custom_rk,
    evolve,
    evolve_levels,
    expm_reference,
    load_config,
    operator_norm,
    resolve_scheme,
    run_study,
    sigma_factor,
    solution_catalog,
    taylor_rk,
    two_step_rk4,
    validate_config,
)
from rkdg_lab import harness, time_integration
from rkdg_lab.time_integration import check_cfl
from conftest import VARIANTS, build_variant, dense_norm

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


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


def diagonal(lam, n=1):
    """lam times the identity on n unknowns."""
    return LinearOperator(sp.identity(n, format="csr") * lam)


def test_rk_step_is_stability_polynomial_on_scalars():
    """One step, a one-step evolve, multiplies a scalar state by R(tau lam)."""
    lam = -0.7
    scheme = resolve_scheme("rk4")
    tau = 0.3
    res = evolve(diagonal(lam), np.array([2.0]), tau, tau, scheme)
    assert res.n_steps == 1
    expected = 2.0 * scheme.amplification(np.array([tau * lam + 0j]))[0].real
    assert abs(res.state[0] - expected) < 1e-14


def test_evolve_step_snapping():
    op = diagonal(0.0)
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
    res = evolve(diagonal(lam), np.array([1.0]), tau, 1.0, scheme)
    r = scheme.amplification(np.array([tau * lam + 0j]))[0].real
    assert abs(res.state[0] - r ** 4) < 1e-13


def test_evolve_validates_inputs():
    op = diagonal(0.0)
    with pytest.raises(ValueError):
        evolve(op, np.array([1.0]), 0.0, 1.0, resolve_scheme("euler"))
    with pytest.raises(ValueError):
        evolve(op, np.array([1.0]), 0.1, -1.0, resolve_scheme("euler"))


def test_evolve_raises_when_the_march_diverges():
    """1001^400 overflows to inf: a diverged march is a numerical failure,
    never a non-finite state handed back to the caller."""
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError, match="diverged"):
        evolve(diagonal(1e3, 3), np.ones(3), 1.0, 400.0, resolve_scheme("euler"))


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


def test_evolve_refuses_any_other_operator_and_state():
    """A march takes a LinearOperator on a real vector or a SymbolOperator
    on its complex coefficients, and nothing else."""
    op, euler = diagonal(-1.0, 4), resolve_scheme("euler")
    symbol = SymbolOperator(3, 1, (EXCHANGE,))
    real_coeffs = np.ones(symbol.symbols.shape[:-1])
    for level in [(lambda v: -v, np.ones(4)), (op, np.ones(4, dtype=complex)),
                  (symbol, real_coeffs)]:
        with pytest.raises(ValueError, match="a march takes a real LinearOperator"):
            evolve(*level, 0.1, 1.0, euler)


# ---------------------------------------------------------------------------
# run_study checks every step against the stability budget before marching
# ---------------------------------------------------------------------------

BUDGET_FLAG = "level n={}: tau * |L| = {} exceeds the stability budget 1.7321e+00"


def test_cfl_gate_warns_or_raises(tiny_advection_config):
    """ssp3's budget is sqrt(3); with tau = 0.15 only the n = 16 level,
    |L| = 15.28, steps past it. Under strict_cfl that level raises;
    otherwise it warns and is flagged."""
    doc = tiny_advection_config(time={"integrator": "ssp3", "t_final": 0.3, "tau": 0.15})
    with pytest.raises(NumericalError, match=r"^level n=16: tau \* \|L\| = 2.2918e\+00"):
        run_study(doc, strict_cfl=True)
    with pytest.warns(StabilityWarning) as caught:
        result = run_study(doc)
    assert [str(w.message) for w in caught] == [BUDGET_FLAG.format(16, "2.2918e+00")]
    assert result.flags == (BUDGET_FLAG.format(16, "2.2918e+00"),)


def test_cfl_warning_names_the_caller_of_evolve():
    """A routine that checks its step with check_cfl and then marches with
    evolve, as run_study does, warns at the line that called the routine,
    not inside it or in the library."""
    op = assemble_high_order_lh(Mesh1D.uniform(16), 1, 1, -1.0, theta0=1.0)
    scheme = resolve_scheme("ssp3")

    def checked_march(tau):
        check_cfl([("n=16", tau, operator_norm(op))], 1e-3, strict_cfl=False)
        return evolve(op, np.ones(op.n), tau, 1.0, scheme)

    with pytest.warns(StabilityWarning) as caught:
        line = inspect.currentframe().f_lineno + 1
        checked_march(1.0)
    assert [(w.filename, w.lineno) for w in caught] == [(__file__, line)]


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


def test_evolve_is_plain_horner_on_a_symbol_operator():
    """The reference applies the symbols by einsum, the formulation the
    matmul in SymbolOperator.apply must match."""
    op = SymbolOperator(6, 1, (np.array([[0.0, 1.0], [1.0, 0.0]]),))
    rng = np.random.default_rng(5)
    shape = op.symbols.shape[:-1]
    u0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    apply_l = lambda v: np.einsum("...ij,...j->...i", op.symbols, v)
    assert_march_is_plain_horner(op, apply_l, u0, 0.1, 2.05, resolve_scheme("rk4"))


@pytest.mark.parametrize("kind", ["operator", "system"])
def test_rk_step_is_plain_horner(kind):
    """One two_step_rk4 step, a one-step evolve, is the plain Horner sweep
    on a sparse operator and on a two-field system."""
    if kind == "operator":
        op, tau = ultraweak_k3(8)
    else:  # a two-field system
        op = assemble_wave_alphabeta(Mesh1D.uniform(8), 1, 0.25, -0.5, -0.5)
        tau = 1.0 / operator_norm(op)
    u = np.random.default_rng(7).standard_normal(op.n)
    scheme = resolve_scheme("two_step_rk4")
    got = evolve(op, u, tau, tau, scheme)
    assert got.n_steps == 1
    assert np.array_equal(got.state, reference_step(lambda v: op.mat @ v, u, tau, scheme.alphas))


def test_rk_step_kernel_benchmark(benchmark):
    """One ssp3 step, a one-step evolve, on the ultraweak_k3 operator at
    n = 20 (80 dofs), the finest level of the study that takes the most
    steps."""
    op, tau = ultraweak_k3(20)
    u = np.random.default_rng(8).standard_normal(op.n)
    scheme = resolve_scheme("ssp3")
    got = benchmark.pedantic(evolve, args=(op, u, tau, tau, scheme), rounds=20, iterations=50)
    assert got.n_steps == 1
    assert np.array_equal(got.state, reference_step(lambda v: op.mat @ v, u, tau, scheme.alphas))


# ---------------------------------------------------------------------------
# The lockstep march is bitwise the per-level march
# ---------------------------------------------------------------------------

T_LOCKSTEP = 0.3
EXCHANGE = np.array([[0.0, 1.0], [1.0, 0.5]])


def lockstep_level(kind, n, rng):
    """(op, initial state, plain apply_l) of one level of the given kind
    on n cells (n modes for the symbol operator)."""
    if kind == "symbol":
        op = SymbolOperator(n, 1, (EXCHANGE,))
        shape = op.symbols.shape[:-1]
        u0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return op, u0, lambda v: np.einsum("...ij,...j->...i", op.symbols, v)
    if kind == "uniform":
        op = assemble_high_order_lh(Mesh1D.uniform(n), 1, 1, -1.0, theta0=1.0)
    elif kind == "perturbed":
        op = assemble_high_order_lh(Mesh1D.perturbed(n, rel=0.3, seed=n), 2, 1, -1.0, theta0=1.0)
    else:  # a two-field system
        op = assemble_wave_alphabeta(Mesh1D.uniform(n), 1, 0.25, -0.5, -0.5)
    return op, rng.standard_normal(op.n), lambda v: op.mat @ v


def plain_march(apply_l, u0, res, alphas):
    u = u0
    for length in [res.tau] * (res.n_steps - 1) + [res.final_step]:
        u = reference_step(apply_l, u, length, alphas)
    return u


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(
    levels=st.lists(
        st.tuples(
            st.sampled_from(["uniform", "perturbed", "system", "symbol"]),
            st.integers(3, 9),  # cells or modes
            st.sampled_from([1, 2, 3, 5, 8]),  # steps
            st.booleans(),  # the last step is short
        ),
        min_size=1,
        max_size=5,
    ),
    scheme=st.sampled_from(["euler", "ssp3", "rk4", "two_step_rk4"]),
    record=st.booleans(),
)
def test_lockstep_march_is_bitwise_the_per_level_march(levels, scheme, record):
    """Levels whose step counts tie, differ and end on a short step, on
    uniform and perturbed meshes, a two-field system and a symbol
    operator, march together exactly as each marches alone."""
    rng = np.random.default_rng(len(levels))
    scheme = resolve_scheme(scheme)
    built = [lockstep_level(kind, n, rng) for kind, n, _, _ in levels]
    taus = [T_LOCKSTEP / (count - 0.4 if short else count) for _, _, count, short in levels]
    got = evolve_levels([b[0] for b in built], [b[1] for b in built], taus, T_LOCKSTEP,
                        scheme, record_norms=record)
    for (op, u0, apply_l), tau, (_, _, count, short), res in zip(built, taus, levels, got):
        alone = evolve(op, u0, tau, T_LOCKSTEP, scheme, record_norms=record)
        assert res.n_steps == alone.n_steps == count
        assert res.final_step == alone.final_step
        assert (res.final_step < tau) == short
        assert res.state.shape == alone.state.shape and res.state.dtype == alone.state.dtype
        assert np.array_equal(res.state, alone.state)
        assert np.array_equal(res.state, plain_march(apply_l, u0, res, scheme.alphas))
        assert res.norms == alone.norms


def growth_level(g, tau):
    """An operator whose forward-Euler step of length tau multiplies
    every entry by g."""
    return diagonal((g - 1.0) / tau, 4)


@pytest.mark.parametrize("order,steps", [((0, 1, 2), 128), ((2, 1, 0), 32)])
def test_lockstep_divergence_raises_what_the_per_level_sequence_raises(order, steps):
    """Growth by 1e3 a step overflows at step 103 (checked at 128), by
    1e10 at step 31 (checked at 32); the 0.6 level stays finite. Either
    diverged level leaving the batch lets the others march on, and the
    error is the first diverged level's in level order, with its own step
    count, as marching the levels one after another raises."""
    levels = [(growth_level(1e3, 1.0), 1.0), (growth_level(0.6, 0.4), 0.4),
              (growth_level(1e10, 0.5), 0.5)]
    ops, taus = [levels[i][0] for i in order], [levels[i][1] for i in order]
    states, euler = [np.ones(4)] * 3, resolve_scheme("euler")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError) as sequence:
            for op, tau in zip(ops, taus):
                evolve(op, np.ones(4), tau, 400.0, euler)
        with pytest.raises(NumericalError) as lockstep:
            evolve_levels(ops, states, taus, 400.0, euler)
    assert str(lockstep.value) == str(sequence.value)
    assert str(lockstep.value).endswith(f"not finite after {steps} steps")


def test_lockstep_cfl_checks_come_first_in_level_order(tiny_advection_config, monkeypatch):
    """Every level is checked before the lockstep march: with tau = 0.15
    both n = 16 and n = 20 step past the budget. Under strict_cfl the
    first in level order raises and nothing is marched; without it each
    violating level warns once, in level order, and the march goes on."""
    doc = tiny_advection_config(grid={"levels": [8, 12, 16, 20]},
                                time={"integrator": "ssp3", "t_final": 0.3, "tau": 0.15})
    marches, march = [], harness.evolve_levels

    def counted(*args, **kwargs):
        marches.append(len(args[0]))
        return march(*args, **kwargs)

    monkeypatch.setattr(harness, "evolve_levels", counted)
    with pytest.raises(NumericalError, match="^level n=16: "):
        run_study(doc, strict_cfl=True)
    assert marches == []
    with pytest.warns(StabilityWarning) as caught:
        result = run_study(doc)
    expected = [BUDGET_FLAG.format(16, "2.2918e+00"), BUDGET_FLAG.format(20, "2.8648e+00")]
    assert [str(w.message) for w in caught] == expected
    assert list(result.flags) == expected
    assert marches == [4]


# ---------------------------------------------------------------------------
# Reference exponential and growth factors
# ---------------------------------------------------------------------------


def test_expm_reference_matches_eigendecomposition():
    rng = np.random.default_rng(33)
    a = rng.standard_normal((30, 30))
    sym = 0.5 * (a + a.T)
    w, v = np.linalg.eigh(sym)
    ref = v @ np.diag(np.exp(0.7 * w)) @ v.T
    got, _ = expm_reference(LinearOperator(sp.csr_matrix(sym)), 0.7, np.eye(30))
    np.testing.assert_allclose(got, ref, atol=1e-12 * np.abs(ref).max())


def test_expm_reference_refuses_a_symbol_operator():
    """A SymbolOperator has no matrix for expm_multiply to act on."""
    op = SymbolOperator(3, 1, (EXCHANGE,))
    with pytest.raises(ValueError, match="temporal studies need a matrix operator"):
        expm_reference(op, 1.0, np.ones(op.symbols.shape[:-1], dtype=complex))


def test_expm_reference_rejects_large_operators():
    big = sp.identity(2500, format="csr")
    with pytest.raises(ValueError):
        expm_reference(LinearOperator(big), 1.0, np.ones(2500))


def test_amplification_norm_rejects_large_operators_without_symbols():
    """|R(tau L)| is dense-only without symbols, refused like expm_reference."""
    big = LinearOperator(sp.identity(2500, format="csr"))
    assert big.symbols is None
    refusal = "dense-only; 2500 unknowns exceed 2000"
    with pytest.raises(ValueError, match=refusal):
        amplification_norm(big, resolve_scheme("rk4"), 0.1)
    with pytest.raises(ValueError, match=refusal):
        expm_reference(big, 1.0, np.ones(2500))


@pytest.fixture(scope="module")
def rk4_reference():
    """semidiscrete_rk4's operator (LDG k=3, 192 dofs), its initial state
    and its horizon."""
    config = validate_config(load_config(os.path.join(CONFIG_DIR, "semidiscrete_rk4.json")))
    problem = build_problem(config, solution_catalog()[config["solution"]], config["grid"]["n"])
    return problem.op, problem.prepare(0.0), config["time"]["t_final"]


def test_expm_reference_agrees_with_the_dense_exponential(rk4_reference):
    """The sparse expm_multiply reference sits within 1e-13 relative of
    the dense matrix exponential, kept as the oracle at 192 dofs."""
    op, u0, t = rk4_reference
    ref, gap = expm_reference(op, t, u0)
    dense = scipy.linalg.expm(t * op.mat.toarray()) @ u0
    assert np.linalg.norm(ref - dense) <= 1e-13 * np.linalg.norm(dense)
    assert 0.0 < gap < 1e-13


def test_expm_reference_catches_a_wrong_exponential(rk4_reference, monkeypatch):
    """The per-mode check's batched expm off by 0.1% in its argument: a
    semigroup self-check (expm(tL/2) squared against expm(tL)) would see
    no defect, since both come from the same wrong routine; the
    expm_multiply reference does."""
    op, u0, t = rk4_reference
    dense_expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: dense_expm(1.001 * a))
    with pytest.raises(NumericalError, match="disagrees with expm_multiply"):
        expm_reference(op, t, u0)


def test_expm_reference_catches_a_wrong_expm_multiply(rk4_reference, monkeypatch):
    """expm_multiply off by 0.1% in its argument: the per-mode check
    refuses the reference."""
    op, u0, t = rk4_reference
    monkeypatch.setattr(time_integration, "expm_multiply", lambda a, v: expm_multiply(1.001 * a, v))
    with pytest.raises(NumericalError, match="disagrees with expm_multiply"):
        expm_reference(op, t, u0)


def test_expm_reference_ignores_the_global_rng(rk4_reference):
    """expm_multiply picks its parameters from onenormest, which draws from
    numpy's global RNG; the reference and its gap must not depend on it."""
    op, u0, t = rk4_reference
    state = np.random.get_state()
    try:
        runs = []
        for seed in (0, 1):
            np.random.seed(seed)
            runs.append(expm_reference(op, t, u0))
    finally:
        np.random.set_state(state)
    (ref0, gap0), (ref1, gap1) = runs
    assert np.array_equal(ref0, ref1)
    assert gap0 == gap1


def exact_expm_apply(mat, n_cells, t, v):
    """exp(tL) v to 40 digits for a block-circulant L, mode by mode. The
    blocks B_d of the cell-0 block row give mode k the symbol
    sum_d B_d w^(d k), w = exp(2 pi i / n_cells); v is transformed,
    evolved by mpmath's expm of each symbol, and transformed back."""
    m = mat.shape[0] // n_cells
    with mpmath.workdps(40):
        row = mat[:m].toarray()
        blocks = {d: mpmath.matrix(row[:, d * m:(d + 1) * m].tolist())
                  for d in range(n_cells) if row[:, d * m:(d + 1) * m].any()}
        cells = [mpmath.matrix(v[j * m:(j + 1) * m].tolist()) for j in range(n_cells)]
        w = [mpmath.expjpi(mpmath.mpf(2 * j) / n_cells) for j in range(n_cells)]
        out = [mpmath.matrix(m, 1) for _ in range(n_cells)]
        for k in range(n_cells):
            symbol = sum((b * w[d * k % n_cells] for d, b in blocks.items()),
                         mpmath.matrix(m, m))
            hat = sum((c * w[-j * k % n_cells] for j, c in enumerate(cells)),
                      mpmath.matrix(m, 1))
            evolved = mpmath.expm(t * symbol) * hat
            for j in range(n_cells):
                out[j] += evolved * w[j * k % n_cells]
        return np.array([float(mpmath.re(x)) / n_cells for cell in out for x in cell])


def test_expm_reference_and_its_check_against_mpmath(rk4_reference):
    """Both the expm_multiply reference and its per-mode check sit within
    1e-13 relative of a 40-digit oracle at semidiscrete_rk4's 192 dofs."""
    op, u0, t = rk4_reference
    (_, n_cells, _), _ = op.layout
    exact = exact_expm_apply(op.mat, n_cells, t, u0)
    ref, _ = expm_reference(op, t, u0)
    check = op.apply_modes(scipy.linalg.expm(t * op.symbols), u0)
    for got in (ref, check):
        assert np.linalg.norm(got - exact) <= 1e-13 * np.linalg.norm(exact)


@pytest.mark.parametrize("assemble", [
    lambda: assemble_wave_alphabeta(Mesh1D.uniform(12), 2, 0.3, -0.2, -0.2),
    lambda: assemble_central_advection(Mesh1D.uniform(12), 2, 0.05)[0],
    lambda: assemble_advection_2d(Mesh2D.uniform(6, 5), 1, 1.0, 1.0),
], ids=["wave", "central", "advection2d"])
def test_per_mode_exponential_matches_the_dense_one(assemble):
    """On two-field and 2D layouts, the per-mode exponential that checks
    expm_reference agrees with the dense oracle, and apply_modes with the
    symbols themselves is the matrix product."""
    op = assemble()
    v = np.random.default_rng(5).standard_normal(op.n)
    t = 5.0 / operator_norm(op)
    assert np.linalg.norm(op.apply_modes(op.symbols, v) - op.mat @ v) <= (
        1e-14 * np.linalg.norm(op.mat @ v)
    )
    dense = scipy.linalg.expm(t * op.mat.toarray()) @ v
    check = op.apply_modes(scipy.linalg.expm(t * op.symbols), v)
    assert np.linalg.norm(check - dense) <= 1e-13 * np.linalg.norm(dense)
    ref, gap = expm_reference(op, t, v)
    assert np.linalg.norm(ref - dense) <= 1e-13 * np.linalg.norm(dense)
    assert gap < 1e-13


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


# ---------------------------------------------------------------------------
# Per-mode amplification on uniform meshes
# ---------------------------------------------------------------------------


def dense_amplification(a, scheme, tau):
    """R(tau A) for a dense A, by Horner's rule on matrices."""
    r = scheme.alphas[-1] * np.eye(a.shape[0])
    for alpha in scheme.alphas[-2::-1]:
        r = tau * (a @ r) + alpha * np.eye(a.shape[0])
    return r


# 2D advection at k = 2 stops at n = 8: its dense R at n = 17 has 2,601
# rows, and the norm test in test_dg_ops1d already covers that size.
AMPLIFICATION_CASES = [
    (name, n)
    for name in VARIANTS
    for n in (2, 3, 8, 17)
    if (name, n) != ("advection2d_k2", 17)
]


@pytest.mark.parametrize("name,n", AMPLIFICATION_CASES)
def test_per_mode_amplification_matches_dense_r(name, n):
    op = build_variant(name, n)
    assert op.symbols is not None
    a = op.dense()
    nrm = operator_norm(op)
    for scheme_name in ("euler", "taylor3", "rk4", "two_step_rk4"):
        scheme = resolve_scheme(scheme_name)
        for lam in (0.7, 2.5):
            tau = lam / nrm
            ref = dense_norm(dense_amplification(a, scheme, tau))
            got = amplification_norm(op, scheme, tau)
            assert abs(got - ref) <= 1e-13 * ref, (scheme_name, lam)


@pytest.mark.parametrize("n", [32, 1024])
@pytest.mark.parametrize(
    "scheme_name,edge", [("taylor3", math.sqrt(3.0)), ("rk4", 2.0 * math.sqrt(2.0))]
)
def test_centered_amplification_edge_is_the_imaginary_axis_extent(scheme_name, edge, n):
    """The centered operator is skew with |L| among its eigenvalue
    moduli, so |R(tau L)| <= 1 exactly while tau |L| stays inside the
    imaginary-axis extent of the scheme: sqrt(3) for taylor3, 2 sqrt(2)
    for rk4. At n = 1024 (2,048 unknowns) the per-mode path decides it."""
    op = assemble_high_order_lh(Mesh1D.uniform(n), 1, 1, -1.0, theta0=0.5)
    scheme = resolve_scheme(scheme_name)
    nrm = operator_norm(op)
    assert amplification_norm(op, scheme, edge * (1 - 1e-6) / nrm) <= 1 + 1e-10
    assert amplification_norm(op, scheme, edge * (1 + 1e-6) / nrm) > 1 + 1e-10
