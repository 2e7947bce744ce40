"""The five public records are validated named tuples with the documented fields.

`SweepConfig` and `FieldConfig` refuse a bad value by name however they
are built; every record keeps its field names, in order, and refuses
assignment; the functions that take a `ThreeQubitDensityMatrix` read its
``matrix``, not the tuple, and `negativity_batch` refuses one bare record
by name; and importing the command line loads no `dataclasses`.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cavity3q
from cavity3q import (
    ComparisonReport,
    FieldConfig,
    NegativityReport,
    ThreeQubitDensityMatrix,
    closed_form_rho,
    compare_states,
    diagonal_probabilities,
    full_evolution,
    negativity_batch,
    negativity_report,
)
from cavity3q.cli import SweepConfig

RECORD_FIELDS = [
    (
        SweepConfig,
        [
            "mode",
            "s",
            "theta",
            "n_max",
            "tau_start",
            "tau_end",
            "tau_steps",
            "s_start",
            "s_end",
            "s_steps",
            "tau",
            "out",
            "oracle_n_max",
            "tolerance",
        ],
    ),
    (FieldConfig, ["s", "theta", "n_max"]),
    (ThreeQubitDensityMatrix, ["matrix", "tau", "s", "theta", "n_max"]),
    (
        NegativityReport,
        [
            "n_g",
            "e_3",
            "e_2",
            "e_0",
            "n_psdg",
            "e_psd",
            "linear_entropy_b",
            "w1_fidelity",
            "bell_projection",
        ],
    ),
    (ComparisonReport, ["max_abs_diff", "worst_entry", "pattern_violations"]),
]

FIELD = FieldConfig(0.8, 1.1, 12)


def test_records_keep_their_fields_in_order():
    for record, names in RECORD_FIELDS:
        assert list(record._fields) == names, record.__name__


def test_records_refuse_assignment():
    rho = closed_form_rho(1.3, FIELD)
    for value in (
        SweepConfig(),
        FIELD,
        rho,
        negativity_report(rho),
        compare_states(rho, rho),
    ):
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))


def test_state_record_is_read_by_its_matrix():
    rho = closed_form_rho(1.3, FIELD)
    reference = full_evolution(FIELD, 1.3)
    assert isinstance(rho, ThreeQubitDensityMatrix)
    assert isinstance(reference, ThreeQubitDensityMatrix)
    np.testing.assert_array_equal(diagonal_probabilities(rho), diagonal_probabilities(rho.matrix))
    assert negativity_report(rho) == negativity_report(rho.matrix)
    assert compare_states(rho, reference) == compare_states(rho.matrix, reference.matrix)
    assert negativity_batch([rho, reference]).report(1) == negativity_report(reference.matrix)


def test_batch_refuses_one_state_record_by_name():
    # the record is a tuple of its five fields, not a stack of one state
    rho = closed_form_rho(1.0, FieldConfig(0.5, 1.0, 10))
    with pytest.raises(ValueError) as refused:
        negativity_batch(rho)
    assert str(refused.value) == (
        "states must be a stack of states, not one ThreeQubitDensityMatrix: "
        "pass [rho], or call negativity_report(rho)"
    )
    assert negativity_batch([rho]).report(0) == negativity_report(rho)


# the fields of a valid config of each record
VALID = {FieldConfig: FIELD._asdict(), SweepConfig: SweepConfig._field_defaults}

# (record, field, bad value, message)
BAD_CONFIGS = [
    (FieldConfig, "n_max", True, "n_max must be a non-negative integer, got True"),
    (FieldConfig, "s", -1.0, "squeeze parameter s must be finite and >= 0, got -1.0"),
    (FieldConfig, "theta", 4.0, "theta must lie in [0, pi], got 4.0"),
    (
        SweepConfig,
        "mode",
        "bogus",
        "mode must be one of tau-sweep, s-sweep, single-point, oracle-check, got 'bogus'",
    ),
    (SweepConfig, "s", -1.0, "squeeze parameter s must be finite and >= 0, got -1.0"),
    (SweepConfig, "tau_steps", 0, "tau_steps must be a positive integer, got 0"),
    (SweepConfig, "s_steps", 10**14, "s_steps must be <= 1000000, got 100000000000000"),
    (SweepConfig, "tau_start", 30.0, "tau_end must be >= tau_start, got tau_start=30.0 tau_end=20.0"),
    (
        SweepConfig,
        "tau_end",
        1e306,
        "tau_end must keep (tau_end - tau_start) * (tau_steps - 1) finite, "
        "got tau_start=0.0 tau_end=1e+306 tau_steps=600",
    ),
    (SweepConfig, "theta", math.nan, "theta must lie in [0, pi], got nan"),
    (SweepConfig, "n_max", 10**7, "n_max must be <= 4000, got 10000000"),
    (SweepConfig, "oracle_n_max", True, "oracle_n_max must be a non-negative integer, got True"),
    (SweepConfig, "tolerance", 0.0, "tolerance must be finite and > 0, got 0.0"),
]


@pytest.mark.parametrize(
    "record, name, value, message",
    BAD_CONFIGS,
    ids=[f"{record.__name__}-{name}" for record, name, _, _ in BAD_CONFIGS],
)
def test_configs_refuse_bad_values_however_built(record, name, value, message):
    valid = VALID[record]
    fields = {**valid, name: value}
    builds = {
        "construction": lambda: record(**fields),
        "_make": lambda: record._make(fields[key] for key in record._fields),
        "_replace": lambda: record(**valid)._replace(**{name: value}),
    }
    for how, build in builds.items():
        with pytest.raises(ValueError) as refused:
            build()
        assert str(refused.value) == message, how


def test_configs_built_by_make_and_replace_are_configs():
    replaced = FIELD._replace(n_max=20)
    assert type(replaced) is FieldConfig and replaced == (0.8, 1.1, 20)
    made = SweepConfig._make(SweepConfig._field_defaults.values())
    assert type(made) is SweepConfig and made == SweepConfig()


def test_importing_the_cli_loads_no_dataclasses():
    # pytest itself imports dataclasses, so the import runs in a fresh interpreter
    src = str(Path(cavity3q.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import cavity3q.cli; "
        "print('dataclasses' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
