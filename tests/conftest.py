import json

import numpy as np
import pytest

from rkdg_lab import (
    DGFunction,
    Mesh1D,
    Mesh2D,
    SmoothFunction,
    assemble_advection_2d,
    assemble_central_advection,
    assemble_energy_conserving_pair,
    assemble_high_order_lh,
    assemble_ultraweak_third,
    assemble_wave_alphabeta,
)


@pytest.fixture
def write_config(tmp_path):
    """Dump a study description to a JSON file and return its path."""

    def _write(doc, name="study.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        return str(path)

    return _write


@pytest.fixture
def tiny_advection_config():
    """A fast spatial study used by harness and CLI tests. Returns a fresh
    dict each time so tests can mutate it freely."""

    def _make(**overrides):
        doc = {
            "schema": "rkdg-lab-config/1",
            "name": "tiny-advection",
            "study": "spatial",
            "solution": "advection_sin",
            "scheme": {"family": "ldg", "degree": 1},
            "grid": {"levels": [8, 12, 16]},
            "time": {"integrator": "ssp3", "t_final": 0.25, "cfl_fraction": 0.9},
        }
        doc.update(overrides)
        return doc

    return _make


def random_dg(mesh, degree, rng):
    coeffs = rng.standard_normal((mesh.n_cells, degree + 1))
    return DGFunction(mesh, degree, coeffs)


def sine_smooth(order=6):
    """sin(x) bundled with as many exact derivatives as requested."""
    cycle = [np.sin, np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x)]
    return SmoothFunction(tuple(cycle[i % 4] for i in range(order + 1)))


def mixed_smooth(order=6):
    """sin(x) + 0.4 cos(2x), with exact derivatives."""

    def nth(i):
        def f(x, i=i):
            s = [np.sin, np.cos, lambda y: -np.sin(y), lambda y: -np.cos(y)]
            return s[i % 4](x) + 0.4 * (2.0 ** i) * s[(i + 1) % 4](2.0 * x)

        return f

    return SmoothFunction(tuple(nth(i) for i in range(order + 1)))


def build_variant(name, n, mesh=None):
    """One operator per scheme variant: every 1D family (on mesh, uniform
    with n cells by default) and 2D advection at degrees 1 and 2 on the
    uniform n x n mesh."""
    mesh = Mesh1D.uniform(n) if mesh is None else mesh
    builders = {
        "upwind": lambda: assemble_high_order_lh(mesh, 2, 1, -1.0, theta0=1.0),
        "heat": lambda: assemble_high_order_lh(mesh, 1, 2, 1.0, theta0=1.0, thetas=(1.0,)),
        "dispersive": lambda: assemble_high_order_lh(
            mesh, 2, 3, -1.0, theta0=1.0, thetas=(0.75,)
        ),
        "fourth_order": lambda: assemble_high_order_lh(
            mesh, 1, 4, -1.0, theta0=1.0, thetas=(1.0, 0.25)
        ),
        "ultraweak": lambda: assemble_ultraweak_third(mesh, 3),
        "wave": lambda: assemble_wave_alphabeta(mesh, 1, 0.3, -0.4, -0.15),
        "pair": lambda: assemble_energy_conserving_pair(mesh, 2),
        "central": lambda: assemble_central_advection(mesh, 1, 0.35 * mesh.h_min)[0],
        "advection2d_k1": lambda: assemble_advection_2d(Mesh2D.uniform(n, n), 1, 1.0, 0.75),
        "advection2d_k2": lambda: assemble_advection_2d(Mesh2D.uniform(n, n), 2, 1.0, 1.0),
    }
    return builders[name]()


ONE_D_VARIANTS = (
    "upwind", "heat", "dispersive", "fourth_order", "ultraweak", "wave", "pair", "central",
)
VARIANTS = ONE_D_VARIANTS + ("advection2d_k1", "advection2d_k2")


def dense_norm(a):
    """Largest singular value of a dense matrix, from the top eigenvalue
    of A^* A (a fraction of the cost of a full SVD at a few thousand
    unknowns, and as accurate for the largest one)."""
    return float(np.sqrt(np.linalg.eigvalsh(a.conj().T @ a)[-1]))
