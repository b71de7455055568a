"""The declarative config tables: the validator is total over mutated
shipped configs, the runners are total over small valid ones, and the
README documents every key the tables accept."""

import copy
import json
import math
import pathlib
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkdg_lab import (
    ConfigError,
    NumericalError,
    RateAssertionError,
    harness,
    run_study,
    validate_config,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
SHIPPED = [json.loads(p.read_text()) for p in sorted((ROOT / "configs").glob("*.json"))]

TABLES = [
    harness._TOP,
    *harness._SCHEME.values(),
    harness._FLUX_PERTURBATION,
    *harness._GRID.values(),
    *harness._TIME.values(),
    harness._INIT,
    harness._REPORT,
    harness._SCAN,
]
TABLE_KEYS = sorted({key for table in TABLES for key in table})

SECTION_KEYS = {
    (): harness._TOP,
    ("scheme",): {k for table in harness._SCHEME.values() for k in table},
    ("scheme", "flux_perturbation"): harness._FLUX_PERTURBATION,
    ("grid",): {k for table in harness._GRID.values() for k in table},
    ("time",): {k for table in harness._TIME.values() for k in table},
    ("init",): harness._INIT,
    ("report",): harness._REPORT,
    ("scan",): harness._SCAN,
}
VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, None, 0, -1, 0.5, 10**400, "x"]),
    st.sampled_from([
        "rkdg-lab-config/1", "spatial", "temporal", "stability", "advection_sin",
        "heat_sin", "wave_sin", "ldg", "wave", "central", "advection2d", "spectral",
        "exchange", "perturbed", "ssp3", "euler", "semidiscrete", "composed", "tensor",
        "reduced", "empty",
    ]),
    st.sampled_from([[], [1], [8, 12], [1.0, 1.0, 0.5], {}, {"a": 1}, {"mode": "composed"}]),
)


def _containers(doc, path=()):
    yield path, doc
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        if isinstance(value, (dict, list)):
            yield from _containers(value, path + (key,))


@st.composite
def mutated_configs(draw):
    """A shipped config after one or two edits. Each edit picks a section
    or list and a key, then deletes the key, sets it to a value from the
    pool, or adds it. Added keys are the section's table keys or an
    unknown one."""
    doc = copy.deepcopy(draw(st.sampled_from(SHIPPED)))
    for _ in range(draw(st.integers(1, 2))):
        path, target = draw(st.sampled_from(list(_containers(doc))))
        value = copy.deepcopy(draw(VALUES))
        if isinstance(target, list):
            if target:
                target[draw(st.integers(0, len(target) - 1))] = value
            continue
        keys = sorted(set(target) | set(SECTION_KEYS.get(path, ())) | {"bogus"})
        key = draw(st.sampled_from(keys))
        if key in target and draw(st.booleans()):
            del target[key]
        else:
            target[key] = value
    return doc


@settings(derandomize=True, deadline=None, max_examples=500, database=None)
@given(mutated_configs())
def test_validator_is_total(doc):
    """Every document is refused with ConfigError, or validates to strict
    JSON that revalidates to itself."""
    try:
        out = validate_config(doc)
    except ConfigError:
        return
    text = json.dumps(out, allow_nan=False)
    assert json.dumps(validate_config(json.loads(text))) == text


FAMILIES = sorted({doc["scheme"]["family"] for doc in SHIPPED})


@st.composite
def small_configs(draw, family):
    """A shipped config of the family shrunk to a small study: degree 0
    to 2, 2 to 8 cells (modes for spectral), a uniform or perturbed mesh
    where the family allows one, t_final at most 0.2, and for temporal
    studies the shipped tau0 or one too long to leave a rate to fit."""
    pool = [doc for doc in SHIPPED if doc["scheme"]["family"] == family]
    # Each temporal config also comes with tau0 = 10, past 4/3 of every
    # t_final drawn below, so its halved steps all snap to one step.
    pool += [{**doc, "time": {**doc["time"], "tau0": 10.0}}
             for doc in pool if doc["study"] == "temporal"]
    doc = copy.deepcopy(draw(st.sampled_from(pool)))
    scheme, grid, study = doc["scheme"], doc["grid"], doc["study"]
    if scheme["family"] != "spectral":
        scheme["degree"] = draw(st.integers(0, 2))
    grid.pop("perturbation", None)
    grid["mesh"] = "uniform"
    if scheme["family"] not in ("advection2d", "spectral") and draw(st.booleans()):
        grid["mesh"] = "perturbed"
        grid["perturbation"] = draw(st.sampled_from([0.1, 0.3, 0.45]))
    if study == "spatial":
        levels = draw(st.lists(st.integers(2, 8), min_size=2, max_size=3, unique=True))
        grid["levels"] = sorted(levels)
    else:
        grid["n"] = draw(st.integers(2, 8))
    if study != "stability":
        doc["time"]["t_final"] = draw(st.sampled_from([0.01, 0.05, 0.2]))
    return doc


@pytest.mark.parametrize("family", FAMILIES)
@settings(derandomize=True, deadline=None, max_examples=8, database=None)
@given(data=st.data())
def test_runners_are_total(family, data):
    """run_study returns a report that serializes to strict JSON, or
    refuses with one of the errors the CLI maps to an exit code."""
    doc = data.draw(small_configs(family))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_study(doc)
    except (ConfigError, NumericalError, RateAssertionError):
        return
    json.dumps(harness.study_to_dict(result), allow_nan=False)


def test_readme_documents_every_table_key():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config files", 1)[1].split("\n## ", 1)[0]
    missing = [k for k in TABLE_KEYS if f"`{k}`" not in section and f"`{k}:" not in section]
    assert not missing, f"README config section does not mention {missing}"
