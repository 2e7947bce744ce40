"""The documented library sketch runs, and the public names are exactly the kept ones."""

import re
from pathlib import Path

import cavity3q
from cavity3q import entanglement, fock_field, oracle, tavis_cummings

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = {
    # fock_field
    "FieldConfig",
    "binomial_amplitude_row",
    "binomial_amplitude_table",
    "truncation_deficit",
    "truncation_deficits",
    # tavis_cummings
    "ThreeQubitDensityMatrix",
    "PATTERN_MASK",
    "closed_form_grid",
    "states_from_elements",
    "closed_form_rho",
    "diagonal_probabilities",
    # entanglement
    "QubitLabel",
    "SELECTIVE_SPECS",
    "NEGATIVE_EIGENVALUE_CUTOFF",
    "W1_STATE",
    "NegativityReport",
    "NegativityBatch",
    "negativity_batch",
    "negativity_report",
    # oracle
    "full_evolution_grid",
    "full_evolution",
    "ComparisonReport",
    "compare_states",
    "__version__",
}


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert blocks
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index}", "exec"), {})


def test_package_exports_exactly_the_kept_names():
    assert len(cavity3q.__all__) == len(set(cavity3q.__all__)) == 24
    assert set(cavity3q.__all__) == PUBLIC_NAMES
    for name in cavity3q.__all__:
        assert getattr(cavity3q, name) is not None, name
    # each name is the object its defining module holds, not a copy or a shadow
    for module in (entanglement, fock_field, oracle, tavis_cummings):
        for name in module.__all__:
            assert getattr(cavity3q, name) is getattr(module, name), (module.__name__, name)
