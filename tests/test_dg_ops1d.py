"""First-order flux-weighted derivative operators and their compositions.

The reference computations here avoid the package's own basis tables:
point values come from numpy's Legendre module and endpoint traces from
the closed forms P_m(1) = 1, P_m(-1) = (-1)^m, P_m'(+-1) = (+-1)^(m+1)
m (m + 1) / 2.
"""

import os
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from rkdg_lab import (
    DGFunction,
    LinearOperator,
    Mesh1D,
    Mesh2D,
    NumericalError,
    assemble_advection_2d,
    assemble_d_theta,
    assemble_high_order_lh,
    assemble_ultraweak_third,
    check_high_order_admissible,
    high_order_flux_sequence,
    jump_energy,
    middle_theta,
    operator_norm,
    project_l2,
    quadratic_form,
    semiboundedness_mu,
)
from rkdg_lab import dg_ops1d, harness
from rkdg_lab.dg_ops1d import _circulant_defect, cell_layout, spectrum_method
from rkdg_lab.harness import build_operator, load_config, run_study
from conftest import ONE_D_VARIANTS, VARIANTS, build_variant, dense_norm, random_dg


CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def eval_cell(u, j, xi, deriv=0):
    """u or its xi-derivative on cell j at reference points xi."""
    h = u.mesh.widths[j]
    vals = np.zeros_like(xi, dtype=float)
    for m in range(u.degree + 1):
        c = np.zeros(m + 1)
        c[m] = 1.0
        if deriv:
            c = np.polynomial.legendre.legder(c, deriv)
        vals += u.coeffs[j, m] * np.sqrt((2 * m + 1) / h) * np.polynomial.legendre.legval(xi, c)
    return vals * (2.0 / h) ** deriv


def interface_traces(u, deriv=0):
    """(minus, plus) traces of u or u' at the interfaces, via closed-form
    endpoint values of the Legendre polynomials."""
    k, mesh = u.degree, u.mesh
    m = np.arange(k + 1)
    if deriv == 0:
        right_ref, left_ref = np.ones(k + 1), (-1.0) ** m
    else:
        right_ref = m * (m + 1) / 2.0
        left_ref = (-1.0) ** (m + 1) * right_ref
    scale = np.sqrt((2 * m + 1) / mesh.widths[:, None])
    chain = (2.0 / mesh.widths) ** deriv
    left = (u.coeffs * scale * left_ref).sum(axis=1) * chain
    right = (u.coeffs * scale * right_ref).sum(axis=1) * chain
    return right, np.roll(left, -1)


# ---------------------------------------------------------------------------
# The single-derivative operator D_theta
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "theta,degree,n_cells",
    [
        pytest.param(1.0, 1, 10, id="1.0-1"),
        pytest.param(0.6, 2, 10, id="0.6-2"),
        pytest.param(0.0, 1, 10, id="0.0-1"),
        pytest.param(0.25, 3, 10, id="0.25-3"),
        (0.6, 2, 2),
        (0.25, 3, 3),
    ],
)
def test_weak_form_of_d_theta(theta, degree, n_cells):
    """<D_theta u, v> = -sum_j int_j u v' + sum_i uhat_i (v_minus - v_plus),
    with the flux uhat = theta u_minus + (1 - theta) u_plus. With two or
    three cells the j-1 and j+1 neighbours coincide or are adjacent."""
    mesh = Mesh1D.perturbed(n_cells, rel=0.25, seed=8)
    rng = np.random.default_rng(17)
    u = random_dg(mesh, degree, rng)
    v = random_dg(mesh, degree, rng)
    op = assemble_d_theta(mesh, degree, theta)
    lhs = float(v.vector @ op.apply(u.vector))

    xi, wq = np.polynomial.legendre.leggauss(degree + 2)
    volume = 0.0
    for j in range(mesh.n_cells):
        uv = eval_cell(u, j, xi)
        dv = eval_cell(v, j, xi, deriv=1)
        volume += 0.5 * mesh.widths[j] * np.sum(wq * uv * dv)
    u_minus, u_plus = interface_traces(u)
    v_minus, v_plus = interface_traces(v)
    flux = theta * u_minus + (1.0 - theta) * u_plus
    rhs = -volume + np.sum(flux * (v_minus - v_plus))
    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


@pytest.mark.parametrize("theta", [0.0, 0.3, 0.5, 1.0])
def test_transpose_flips_theta(theta):
    mesh = Mesh1D.perturbed(12, rel=0.2, seed=3)
    a = assemble_d_theta(mesh, 2, theta).dense()
    b = assemble_d_theta(mesh, 2, 1.0 - theta).dense()
    np.testing.assert_allclose(a.T, -b, atol=1e-12 * max(1.0, np.abs(a).max()))


@pytest.mark.parametrize("theta", [0.0, 0.5, 0.75, 1.0])
def test_quadratic_form_is_weighted_jump_energy(theta):
    mesh = Mesh1D.perturbed(9, rel=0.3, seed=6)
    rng = np.random.default_rng(23)
    u = random_dg(mesh, 2, rng)
    op = assemble_d_theta(mesh, 2, theta)
    expected = (theta - 0.5) * jump_energy(u)
    assert abs(quadratic_form(op, u.vector) - expected) < 1e-11


def test_jump_energy_definition():
    rng = np.random.default_rng(2)
    u = random_dg(Mesh1D.uniform(7), 1, rng)
    assert abs(jump_energy(u) - np.sum(u.jumps() ** 2)) < 1e-13


def test_constants_in_kernel_and_mean_zero_range():
    mesh = Mesh1D.perturbed(8, rel=0.2, seed=1)
    op = assemble_d_theta(mesh, 2, 0.8)
    one = project_l2(lambda x: np.ones_like(x), mesh, 2)
    assert np.linalg.norm(op.apply(one.vector)) < 1e-13
    rng = np.random.default_rng(5)
    u = random_dg(mesh, 2, rng)
    image = DGFunction.from_vector(mesh, 2, op.apply(u.vector))
    assert abs(image.integral()) < 1e-12 * max(1.0, np.linalg.norm(u.vector))


# ---------------------------------------------------------------------------
# Flux parameter bookkeeping for compositions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q,expected_even", [(1, True), (3, False), (5, True), (7, False)])
def test_middle_theta_alternates_with_gamma_parity(q, expected_even):
    assert middle_theta(q, 0.3) == (0.3 if expected_even else 0.7)


def test_flux_sequence_layout():
    assert high_order_flux_sequence(1, 0.8, ()) == [0.8]
    assert high_order_flux_sequence(2, None, (0.75,)) == [0.25, 0.75]
    np.testing.assert_allclose(
        high_order_flux_sequence(3, 0.3, (0.8,)), [0.2, 0.7, 0.8]
    )
    np.testing.assert_allclose(
        high_order_flux_sequence(4, None, (0.6, 0.9)), [0.1, 0.4, 0.6, 0.9]
    )


def test_flux_sequence_rejects_wrong_counts():
    with pytest.raises(ValueError):
        high_order_flux_sequence(2, None, ())
    with pytest.raises(ValueError):
        high_order_flux_sequence(4, None, (0.6,))
    with pytest.raises(ValueError):
        high_order_flux_sequence(3, None, (0.8,))  # odd q needs theta0


@pytest.mark.parametrize(
    "q,beta,theta0,ok",
    [
        (1, -1.0, 1.0, True),    # advection, upwind side
        (1, -1.0, 0.5, True),    # central flux sits on the boundary of the set
        (1, 1.0, 0.75, False),
        (2, 1.0, None, True),    # heat
        (2, -1.0, None, False),
        (3, -1.0, 1.0, True),    # dispersive
        (3, 1.0, 1.0, False),
        (3, 1.0, 0.25, True),
        (4, -1.0, None, True),
        (4, 1.0, None, False),
    ],
)
def test_admissibility_sign_conditions(q, beta, theta0, ok):
    if ok:
        check_high_order_admissible(q, beta, theta0)
    else:
        with pytest.raises(ValueError):
            check_high_order_admissible(q, beta, theta0)


def test_admissibility_rejects_degenerate_input():
    with pytest.raises(ValueError):
        check_high_order_admissible(0, -1.0, 1.0)
    with pytest.raises(ValueError):
        check_high_order_admissible(2, 0.0, None)


# ---------------------------------------------------------------------------
# Composite operators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "q,beta,theta0,thetas",
    [(1, -1.0, 1.0, ()), (2, 1.0, None, (0.8,)), (3, -1.0, 0.7, (1.0,))],
)
def test_composition_is_product_of_first_order_factors(q, beta, theta0, thetas):
    mesh = Mesh1D.perturbed(8, rel=0.2, seed=4)
    lh = assemble_high_order_lh(mesh, 2, q, beta, theta0=theta0, thetas=thetas)
    seq = high_order_flux_sequence(q, theta0, thetas)
    prod = sp.identity(lh.n, format="csr")
    for t in seq:
        prod = prod @ assemble_d_theta(mesh, 2, t).mat
    np.testing.assert_allclose(
        lh.dense(), beta * prod.toarray(), atol=1e-12 * np.abs(prod).max()
    )


@pytest.mark.parametrize(
    "q,beta,theta0,thetas,degree",
    [
        (1, -1.0, 1.0, (), 1),
        (2, 1.0, None, (1.0,), 2),
        (3, -1.0, 1.0, (1.0,), 2),
        (4, -1.0, None, (1.0, 0.75), 1),
    ],
)
def test_admissible_compositions_are_semibounded(q, beta, theta0, thetas, degree):
    mesh = Mesh1D.perturbed(10, rel=0.25, seed=7)
    op = assemble_high_order_lh(mesh, degree, q, beta, theta0=theta0, thetas=thetas)
    assert semiboundedness_mu(op) <= 1e-10


def test_assembly_refuses_inadmissible_parameters():
    mesh = Mesh1D.uniform(8)
    with pytest.raises(ValueError):
        assemble_high_order_lh(mesh, 1, 2, -1.0, thetas=(1.0,))


def test_upwind_derivative_is_consistent_under_refinement():
    """On projected sin the q = 1 operator lands near cos, and the defect
    shrinks when the mesh refines (plain L2 data, so no exact commuting)."""
    defects = []
    for n in (24, 48):
        mesh = Mesh1D.uniform(n)
        op = assemble_high_order_lh(mesh, 2, 1, -1.0, theta0=1.0)
        u = project_l2(np.sin, mesh, 2)
        target = project_l2(lambda x: -np.cos(x), mesh, 2)
        # the basis is orthonormal, so the coefficient norm is the L2 norm
        defects.append(float(np.linalg.norm(op.apply(u.vector) - target.vector)))
    assert defects[1] < 0.05
    assert defects[1] < 0.6 * defects[0]


# ---------------------------------------------------------------------------
# Ultra-weak third derivative
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_cells", [9, 2, 3])
def test_ultraweak_energy_is_derivative_jump_dissipation(n_cells):
    """<L v, v> = -1/2 sum over interfaces of [v']^2."""
    mesh = Mesh1D.perturbed(n_cells, rel=0.2, seed=12)
    op = assemble_ultraweak_third(mesh, 3)
    rng = np.random.default_rng(31)
    u = random_dg(mesh, 3, rng)
    dminus, dplus = interface_traces(u, deriv=1)
    expected = -0.5 * np.sum((dplus - dminus) ** 2)
    assert abs(quadratic_form(op, u.vector) - expected) <= 1e-10 * max(1.0, abs(expected))
    assert semiboundedness_mu(op) <= 1e-10


def test_ultraweak_warns_below_design_degree():
    with pytest.warns(UserWarning):
        assemble_ultraweak_third(Mesh1D.uniform(8), 2)


# ---------------------------------------------------------------------------
# Norm and symmetric-part estimates
# ---------------------------------------------------------------------------


def test_operator_norm_dense_path_matches_svd():
    rng = np.random.default_rng(14)
    mat = sp.random(60, 60, density=0.2, random_state=14, format="csr")
    ref = np.linalg.svd(mat.toarray(), compute_uv=False)[0]
    assert abs(operator_norm(LinearOperator(mat)) - ref) < 1e-10


def test_operator_norm_power_iteration_on_known_diagonal():
    vals = np.concatenate([np.linspace(-1.0, 1.0, 2099), [3.0]])
    op = LinearOperator(sp.diags(vals).tocsr())
    assert op.n > 2000  # forces the matrix-free branch
    assert abs(operator_norm(op) - 3.0) < 1e-6


def test_semiboundedness_power_iteration_on_gapped_spectrum():
    vals = np.concatenate([np.linspace(-2.0, 0.0, 1599), [1.5]])
    op = LinearOperator(sp.diags(vals).tocsr())
    assert op.n > 1500
    assert abs(semiboundedness_mu(op) - 1.5) < 1e-9


def test_semiboundedness_is_attained_rayleigh_maximum():
    rng = np.random.default_rng(9)
    dense = rng.standard_normal((40, 40))
    op = LinearOperator(sp.csr_matrix(dense))
    mu = semiboundedness_mu(op)
    for _ in range(50):
        v = rng.standard_normal(40)
        v /= np.linalg.norm(v)
        assert float(v @ (dense @ v)) <= mu + 1e-12
    # the bound is sharp: the top eigenvector of the symmetric part attains it
    w, vecs = np.linalg.eigh(0.5 * (dense + dense.T))
    top = vecs[:, -1]
    assert abs(float(top @ (dense @ top)) - mu) < 1e-10


# ---------------------------------------------------------------------------
# Per-mode measurements on uniform meshes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 8, 17])
@pytest.mark.parametrize("name", VARIANTS)
def test_per_mode_norm_and_mu_match_the_dense_oracle(name, n):
    """On a uniform mesh every operator is block circulant, so |L| and mu
    are exact maxima over the per-mode matrices."""
    op = build_variant(name, n)
    assert op.symbols is not None
    assert op.symbols.shape[0] == op.n // op.symbols.shape[-1]
    a = op.dense()
    nrm = dense_norm(a)
    assert abs(operator_norm(op) - nrm) <= 1e-13 * nrm
    mu = np.linalg.eigvalsh(0.5 * (a + a.T))[-1]
    assert abs(semiboundedness_mu(op) - mu) <= 1e-13 * nrm


def assert_matches_dense_oracle(op):
    """|L| to 1e-13 relative and mu to 1e-13 |L| against dense solves."""
    a = op.dense()
    nrm = dense_norm(a)
    assert abs(operator_norm(op) - nrm) <= 1e-13 * nrm
    mu = np.linalg.eigvalsh(0.5 * (a + a.T))[-1]
    assert abs(semiboundedness_mu(op) - mu) <= 1e-13 * nrm


@pytest.mark.parametrize("name", ONE_D_VARIANTS)
def test_symbols_are_refused_off_a_uniform_mesh(name):
    """A perturbed mesh, or a uniform one with a single boundary moved by
    1e-6 h, breaks shift invariance: no symbols, so the Krylov path runs."""
    perturbed = build_variant(name, 12, Mesh1D.perturbed(12, rel=0.2, seed=4))
    assert perturbed.symbols is None
    boundaries = Mesh1D.uniform(12).boundaries.copy()
    boundaries[5] += 1e-6 * (boundaries[1] - boundaries[0])
    nudged = build_variant(name, 12, Mesh1D(boundaries))
    assert nudged.symbols is None
    assert_matches_dense_oracle(perturbed)
    assert_matches_dense_oracle(nudged)


def test_layout_survives_operator_algebra():
    d = assemble_d_theta(Mesh1D.uniform(6), 2, 1.0)
    assert d.layout == ((1, 6, 3), (1,))
    assert d.symbols is not None
    assert LinearOperator(d.mat).symbols is None
    # Circulant over cells, not over single unknowns: a layout claiming
    # one unknown per cell is refused.
    assert LinearOperator(d.mat, layout=((1, 18), (1,))).symbols is None


def rebuilt_circulant_defect(op):
    """The oracle for the circulance check: the block circulant C is
    rebuilt from the cell-0 block rows as a sparse matrix and subtracted
    from A. Returns (sqrt(|A - C|_1 |A - C|_inf), |C|_2,
    sqrt(|C|_1 |C|_inf)), with |C|_2 from the per-mode SVD."""
    shape, cell_axes = op.layout
    cell0 = tuple(0 if ax in cell_axes else slice(None) for ax in range(len(shape)))
    rows = np.arange(op.n).reshape(shape)[cell0].ravel()
    block_rows = op.mat[rows]
    entries = block_rows.tocoo()
    row_at = list(np.unravel_index(rows[entries.row], shape))
    col_at = list(np.unravel_index(entries.col, shape))
    shifts = np.indices([shape[ax] for ax in cell_axes]).reshape(len(cell_axes), -1, 1)
    for shift, ax in zip(shifts, cell_axes):
        row_at[ax] = (row_at[ax] + shift) % shape[ax]
        col_at[ax] = (col_at[ax] + shift) % shape[ax]
    data = np.broadcast_to(entries.data, (shifts.shape[1], entries.nnz)).ravel()
    row_idx = np.ravel_multi_index(np.broadcast_arrays(*row_at), shape).ravel()
    col_idx = np.ravel_multi_index(np.broadcast_arrays(*col_at), shape).ravel()
    circulant = sp.csr_matrix((data, (row_idx, col_idx)), shape=op.mat.shape)
    defect = abs(op.mat - circulant)
    bound = np.sqrt(defect.sum(axis=0).max() * defect.sum(axis=1).max())
    c_bound = np.sqrt(abs(circulant).sum(axis=0).max() * abs(circulant).sum(axis=1).max())
    axes = tuple(1 + ax for ax in cell_axes)
    symbols = np.fft.fftn(block_rows.toarray().reshape((rows.size,) + shape), axes=axes)
    symbols = np.moveaxis(symbols, axes, tuple(range(len(axes))))
    c_norm = np.linalg.norm(symbols.reshape(-1, rows.size, rows.size), 2, axis=(-2, -1)).max()
    return float(bound), float(c_norm), float(c_bound)


def assert_circulance_matches_the_oracle(op):
    """The entrywise check reaches the oracle's decision, with its bound
    within 1e-13 sqrt(|C|_1 |C|_inf) of the oracle's."""
    bound, c_norm, c_bound = rebuilt_circulant_defect(op)
    _, new_bound, new_c_bound = _circulant_defect(op.mat, op.layout)
    assert abs(new_bound - bound) <= 1e-13 * c_bound
    assert new_c_bound == pytest.approx(c_bound, rel=1e-13, abs=0.0)
    accepted = bound <= 1e-12 * c_norm
    assert (op.symbols is not None) == accepted
    if accepted:
        assert op.mode_norms.max() == c_norm
    return accepted


@pytest.mark.parametrize("n", [2, 3, 8, 17])
@pytest.mark.parametrize("name", VARIANTS)
def test_circulance_check_matches_the_rebuilt_circulant_on_uniform_meshes(name, n):
    """Every scheme variant, scalar, two-field and 2D, down to n = 2,
    where cells j-1 and j+1 are one cell and their blocks add."""
    op = build_variant(name, n)
    assert assert_circulance_matches_the_oracle(op)


def test_the_variants_cover_two_field_and_2d_layouts():
    assert build_variant("wave", 4).layout == ((2, 4, 2), (1,))
    assert build_variant("pair", 4).layout == ((2, 4, 3), (1,))
    assert build_variant("advection2d_k1", 4).layout == ((4, 2, 4, 2), (0, 2))


@pytest.mark.parametrize("name", ONE_D_VARIANTS)
def test_circulance_check_matches_the_rebuilt_circulant_off_a_uniform_mesh(name):
    perturbed = build_variant(name, 12, Mesh1D.perturbed(12, rel=0.2, seed=4))
    boundaries = Mesh1D.uniform(12).boundaries.copy()
    boundaries[5] += 1e-6 * (boundaries[1] - boundaries[0])
    nudged = build_variant(name, 12, Mesh1D(boundaries))
    assert not assert_circulance_matches_the_oracle(perturbed)
    assert not assert_circulance_matches_the_oracle(nudged)


def planted(op, where, delta):
    """op with one defect of size delta planted. "changed": a stored entry
    outside the cell-0 block rows moves by delta. "extra": A gains an
    entry outside its pattern that C lacks. "missing": a cell-0 block row
    gains such an entry, so C holds it in every cell and A only once."""
    a = op.dense()
    row = 0 if where == "missing" else op.n - 1
    if where == "changed":
        col = np.flatnonzero(a[row])[0]
    else:
        col = np.flatnonzero(a[row] == 0.0)[0]
    a[row, col] += delta
    return LinearOperator(sp.csr_matrix(a), layout=op.layout)


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("where", ["changed", "extra", "missing"])
@pytest.mark.parametrize("name", ["upwind", "wave", "advection2d_k1"])
def test_circulance_check_on_planted_defects(name, where, factor):
    """A defect at half the 1e-12 |C|_2 threshold is accepted and one at
    twice it refused, by the entrywise check and the oracle alike."""
    op = build_variant(name, 8)
    defected = planted(op, where, factor * 1e-12 * operator_norm(op))
    assert assert_circulance_matches_the_oracle(defected) == (factor < 1.0)


def test_circulance_check_on_an_all_zero_operator():
    op = LinearOperator(sp.csr_matrix((12, 12)), layout=cell_layout(1, 4, 2))
    assert assert_circulance_matches_the_oracle(op)
    assert not op.symbols.any() and operator_norm(op) == 0.0


def test_circulance_check_on_rows_with_no_entries():
    """Rows left empty in every cell keep the operator circulant; one
    emptied row alone breaks it."""
    op = build_variant("upwind", 8)
    keep = np.tile([0.0, 1.0, 1.0], 8)
    masked = (sp.diags(keep) @ op.mat).tocsr()
    masked.eliminate_zeros()
    assert np.diff(masked.indptr).min() == 0
    assert assert_circulance_matches_the_oracle(LinearOperator(masked, layout=op.layout))
    keep[-2] = 0.0
    one_row = (sp.diags(keep) @ op.mat).tocsr()
    one_row.eliminate_zeros()
    assert not assert_circulance_matches_the_oracle(LinearOperator(one_row, layout=op.layout))


def test_circulance_check_adds_duplicate_entries():
    """A CSR matrix storing every entry a as 2a and -a is the same operator."""
    op = build_variant("wave", 8)
    mat = op.mat
    parts = np.stack([2.0 * mat.data, -mat.data], axis=1).ravel()
    split = sp.csr_matrix((parts, np.repeat(mat.indices, 2), 2 * mat.indptr), shape=mat.shape)
    dup = LinearOperator(split, layout=op.layout)
    assert not split.has_canonical_format and split.nnz == 2 * mat.nnz
    assert dup.mat.nnz == mat.nnz
    assert assert_circulance_matches_the_oracle(dup)
    assert np.array_equal(dup.symbols, op.symbols)


@pytest.mark.parametrize("name", VARIANTS)
def test_every_variant_stores_canonical_csr(name):
    """Sorted rows without duplicates, on uniform meshes and, for the 1D
    families, perturbed ones: the format the circulance check and the
    lockstep stack read."""
    assert build_variant(name, 5).mat.has_canonical_format
    if name in ONE_D_VARIANTS:
        assert build_variant(name, 5, Mesh1D.perturbed(5, rel=0.2, seed=5)).mat.has_canonical_format


def test_canonical_csr_leaves_the_callers_matrix_alone():
    """A LinearOperator built from unsorted CSR with a duplicate entry
    stores its canonical form; the caller's indices and data are unchanged."""
    data, indices = np.array([1.0, 2.0, 3.0, 4.0]), np.array([2, 0, 2, 1])
    mat = sp.csr_matrix((data, indices, np.array([0, 3, 4, 4])), shape=(3, 3))
    op = LinearOperator(mat)
    assert op.mat.has_canonical_format
    np.testing.assert_array_equal(op.mat.toarray(), [[2.0, 0.0, 4.0], [0.0, 4.0, 0.0], [0.0] * 3])
    np.testing.assert_array_equal(mat.indices, [2, 0, 2, 1])
    np.testing.assert_array_equal(mat.data, [1.0, 2.0, 3.0, 4.0])


def test_one_batched_svd_per_uniform_level_and_none_off_it(monkeypatch):
    """The SVD that accepts the symbols also gives |L|: one per level of a
    uniform study. A perturbed study is refused before any SVD and keeps
    its Krylov |L|."""
    calls = []

    def counted(symbols, mode_norms=dg_ops1d._mode_norms):
        calls.append(symbols.shape)
        return mode_norms(symbols)

    monkeypatch.setattr(dg_ops1d, "_mode_norms", counted)
    uniform = run_study(load_config(os.path.join(CONFIG_DIR, "advection_upwind_k1.json")))
    assert len(calls) == len(uniform.levels) == 5
    assert {lv.extra["spectrum"] for lv in uniform.levels} == {"modes"}

    calls.clear()
    config = load_config(os.path.join(CONFIG_DIR, "advection_upwind_k2_perturbed.json"))
    perturbed = run_study(config)
    assert calls == []
    assert {lv.extra["spectrum"] for lv in perturbed.levels} == {"krylov"}
    config = perturbed.config
    for salt, (n, lv) in enumerate(zip(config["grid"]["levels"], perturbed.levels)):
        op = build_operator(config["scheme"], config["grid"], n, config["seed"], salt)[0]
        assert lv.op_norm == operator_norm(LinearOperator(op.mat))


def test_first_norm_of_the_finest_2d_operator_stays_within_its_memory_budget():
    """The first operator_norm of the 9,216-unknown advection2d_k1 level
    checks circulance, transforms and runs one batched SVD within 64
    bytes per stored nonzero (tracemalloc peak)."""
    op = assemble_advection_2d(Mesh2D.uniform(48, 48), 1, 1.0, 0.75)
    assert op.n == 9216
    tracemalloc.start()
    try:
        operator_norm(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * op.mat.nnz


# ---------------------------------------------------------------------------
# Krylov measurements for operators without symbols
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 8, 17])
@pytest.mark.parametrize("name", ONE_D_VARIANTS)
def test_krylov_norm_and_mu_match_the_dense_oracle(name, n):
    """On a perturbed mesh there are no symbols; one ARPACK call each
    gives |L| and mu, down to the smallest meshes."""
    op = build_variant(name, n, Mesh1D.perturbed(n, rel=0.2, seed=n))
    assert op.symbols is None
    assert spectrum_method(op) == "krylov"
    assert_matches_dense_oracle(op)


@pytest.mark.parametrize("n", [2100, 3000])
def test_krylov_norm_of_a_spread_diagonal(n):
    """Singular values spread evenly up to 3, with no gap below the top
    one: the slowest case for an iteration, still exact to 1e-12."""
    op = LinearOperator(sp.diags(np.linspace(0.0, 3.0, n)).tocsr())
    assert abs(operator_norm(op) - 3.0) <= 1e-12


@pytest.mark.parametrize("n", [1600, 1999, 2500])
def test_krylov_mu_of_a_spread_diagonal(n):
    op = LinearOperator(sp.diags(np.linspace(-2.0, 1.5, n)).tocsr())
    assert abs(semiboundedness_mu(op) - 1.5) <= 1e-12


def test_krylov_measurements_of_a_zero_operator_are_exactly_zero():
    """The shift turns a zero matrix into I, so |L| and mu read 0.0 and a
    study still refuses the operator for giving no step size."""
    op = LinearOperator(sp.csr_matrix((12, 12)))
    assert op.symbols is None
    assert operator_norm(op) == 0.0 and semiboundedness_mu(op) == 0.0
    with pytest.raises(NumericalError, match="the operator is zero"):
        harness._require_nonzero("zero", operator_norm(op))


def test_krylov_measurements_repeat_bit_for_bit():
    """A fixed start vector: the same numbers on every call, and inside a
    thread pool, on the perturbed 1,536-dof upwind operator."""
    op = assemble_high_order_lh(Mesh1D.perturbed(512, rel=0.3, seed=3), 2, 1, -1.0, theta0=1.0)
    assert op.n == 1536 and op.symbols is None
    serial = (operator_norm(op), semiboundedness_mu(op))
    assert (operator_norm(op), semiboundedness_mu(op)) == serial
    with ThreadPoolExecutor(2) as pool:
        norms = list(pool.map(operator_norm, [op, op]))
        mus = list(pool.map(semiboundedness_mu, [op, op]))
    assert norms == [serial[0]] * 2 and mus == [serial[1]] * 2
