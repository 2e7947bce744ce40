import math

import numpy as np
import pytest

import cavity3q.cli as cli
import cavity3q.entanglement as ent
import cavity3q.tavis_cummings as tc
from cavity3q import (
    FieldConfig,
    QubitLabel,
    closed_form_grid,
    closed_form_rho,
    diagonal_probabilities,
    full_evolution_grid,
    negativity_report,
    truncation_deficit,
)
from cavity3q.cli import COLUMNS, MAX_N_MAX, MAX_SWEEP_STEPS, MODES, SweepConfig, main, run_oracle_check, run_sweep


def parse_csv(text):
    lines = [line for line in text.strip().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


SMALL = dict(s=0.8, theta=2.0, n_max=15)


def test_single_point_matches_degenerate_tau_sweep():
    point = SweepConfig(mode="single-point", tau=1.7, **SMALL)
    sweep = SweepConfig(mode="tau-sweep", tau_start=1.7, tau_end=1.7, tau_steps=1, **SMALL)
    _, rows_point = parse_csv(run_sweep(point))
    _, rows_sweep = parse_csv(run_sweep(sweep))
    assert rows_point == rows_sweep
    assert len(rows_point) == 1
    # the s-sweep row at the same s; a product of another shape may round
    # differently, so it need not be bit-equal
    s_sweep = SweepConfig(
        mode="s-sweep", tau=1.7, s_start=0.0, s_end=1.6, s_steps=3, theta=2.0, n_max=15
    )
    _, rows_s = parse_csv(run_sweep(s_sweep))
    assert rows_s[1][1] == SMALL["s"]
    assert np.abs(np.subtract(rows_s[1], rows_point[0])).max() <= 1e-15


def test_tau_sweep_columns_and_grid():
    cfg = SweepConfig(mode="tau-sweep", tau_start=0.0, tau_end=2.0, tau_steps=5, **SMALL)
    header, rows = parse_csv(run_sweep(cfg))
    assert header == COLUMNS
    assert len(rows) == 5
    assert [r[0] for r in rows] == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
    first = dict(zip(header, rows[0]))
    assert first["P1"] == pytest.approx(1.0, abs=1e-4)
    assert first["N_G_B"] == 0.0


def test_s_sweep_zero_squeezing_row_has_no_entanglement():
    cfg = SweepConfig(mode="s-sweep", tau=2.0, s_start=0.0, s_end=0.4, s_steps=3, theta=2.0, n_max=15)
    header, rows = parse_csv(run_sweep(cfg))
    row0 = dict(zip(header, rows[0]))
    assert row0["s"] == 0.0
    for key in ("N_G_B", "N_PSDG_B", "N_PSDG_A1", "E_PSD_B_BA1", "E_PSD_A1_A1A2", "E_PSD_A1_A1B"):
        assert abs(row0[key]) < 1e-12
    assert [r[1] for r in rows] == pytest.approx([0.0, 0.2, 0.4])


@pytest.mark.parametrize("mode", ["tau-sweep", "s-sweep", "single-point"])
def test_sweeps_assemble_and_check_no_dense_states(mode, monkeypatch):
    # every column of a sweep is read from the closed form's eight elements:
    # with the dense states and the kernel's checks of them made to raise,
    # the production sweeps still write the same CSV
    cfg = SweepConfig(mode=mode)
    expected = run_sweep(cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep assembled or checked a dense (N, 8, 8) stack")

    for module in (cli, tc, ent):
        monkeypatch.setattr(module, "states_from_elements", refuse)
    monkeypatch.setattr(ent, "_require_states", refuse)
    assert run_sweep(cfg) == expected


def test_csv_is_byte_deterministic():
    cfg = SweepConfig(mode="tau-sweep", tau_start=0.0, tau_end=3.0, tau_steps=7, **SMALL)
    assert run_sweep(cfg) == run_sweep(cfg)


def test_csv_rows_match_str_format_byte_for_byte():
    # the rows are %-formatted; they must equal the "{:.12g}" rendering of
    # every cell, negative zero printed as 0, specials and 12-digit ties included
    specials = [
        -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
        1000000000005.0, 1000000000015.0, 12345678901.25, 12345678901.75, -0.125, 1e-300,
        0.1, 2.0 / 3.0, 123456789012.5, 0.0, 1.0, 14.5, 3.141592653589793, 1e16,
    ]
    values = np.array(specials)
    cfg = SweepConfig()
    reference = ",".join(["{:.12g}"] * len(COLUMNS))
    # the whole body is one %-format call: a stack of every rotation, one row
    # and a production-sized 600 rows
    for count in (len(values), 1, 600):
        rows = np.stack([np.roll(values, k)[: len(COLUMNS)] for k in range(count)])
        text = cli._csv_text(cfg, [], rows)
        expected = [reference.format(*row) for row in (rows + 0.0).tolist()]
        assert text.splitlines()[-len(rows) - 1:] == [",".join(COLUMNS), *expected]
        assert text.endswith("\n") and "-0," not in text and "nan" in text and "-inf" in text
        assert "1e+12" in text and "1.00000000002e+12" in text and "12345678901.2" in text


def test_analytic_and_eigensolver_columns_agree():
    # one implementation fills both columns, so they are the same text
    cfg = SweepConfig(mode="tau-sweep", tau_start=0.0, tau_end=6.0, tau_steps=13, **SMALL)
    lines = [line for line in run_sweep(cfg).splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    first, second = header.index("N_G_B"), header.index("N_G_B_analytic")
    cells = [line.split(",") for line in lines[1:]]
    assert len(cells) == 13
    assert all(row[first] == row[second] for row in cells)
    assert any(float(row[first]) > 0.0 for row in cells)


def test_oracle_check_passes_on_reduced_grid():
    cfg = SweepConfig(mode="oracle-check", oracle_n_max=10, tolerance=1e-8)
    report, status = run_oracle_check(cfg)
    assert status == 0
    assert "# result: PASS" in report
    assert report.count("\n") >= 36


def _corrupt_closed_forms(monkeypatch, corrupt):
    """Make `run_oracle_check` compare ``corrupt`` of every closed-form state stack."""
    states = cli.states_from_elements
    monkeypatch.setattr(cli, "states_from_elements", lambda elements: corrupt(states(elements)))


def test_oracle_check_flags_corruption(monkeypatch):
    cfg = SweepConfig(mode="oracle-check", oracle_n_max=6, tolerance=1e-8)

    def corrupt(matrices):
        matrices[..., 4, 4] += 1e-3
        return matrices

    _corrupt_closed_forms(monkeypatch, corrupt)
    report, status = run_oracle_check(cfg)
    assert status == 1
    assert "# result: FAIL" in report
    assert "entry=[4,4]" in report
    # both sides are real states, so the line prints two real numbers
    line = next(line for line in report.splitlines() if line.startswith("# DISCREPANCY"))
    closed, reference = (float(field.split("=")[1]) for field in line.split()[-2:])
    assert closed - reference == pytest.approx(1e-3, abs=1e-12)


def test_oracle_check_pattern_lines_print_real_values(monkeypatch):
    cfg = SweepConfig(mode="oracle-check", oracle_n_max=6, tolerance=1e-8)

    def corrupt(matrices):
        matrices[..., 0, 3] = matrices[..., 3, 0] = 1e-6
        return matrices

    _corrupt_closed_forms(monkeypatch, corrupt)
    report, status = run_oracle_check(cfg)
    assert status == 1
    lines = [line for line in report.splitlines() if line.startswith("# PATTERN")]
    assert len(lines) == 2 * 36
    for line in lines:
        closed, reference = (float(field.split("=")[1]) for field in line.split()[-2:])
        assert closed == 1e-6 and abs(reference) <= 1e-14


def test_oracle_check_evaluates_one_closed_form_grid_per_angle(monkeypatch):
    cfg = SweepConfig(mode="oracle-check", oracle_n_max=6, tolerance=1e-8)
    calls = []
    grid = cli.closed_form_grid

    def recording(taus, squeezes, theta, n_max):
        calls.append((tuple(taus), tuple(squeezes), theta, n_max))
        return grid(taus, squeezes, theta, n_max)

    monkeypatch.setattr(cli, "closed_form_grid", recording)
    report, status = run_oracle_check(cfg)
    assert status == 0 and "# result: PASS" in report
    grid_args = (cli.ORACLE_CHECK_TAUS, cli.ORACLE_CHECK_SQUEEZES)
    assert calls == [(*grid_args, theta, 6) for theta in cli.ORACLE_CHECK_THETAS]


def test_zero_squeezing_is_exact_everywhere():
    # without squeezing both paths produce the same pure ground state exactly
    from cavity3q import FieldConfig, closed_form_rho, compare_states, full_evolution

    for tau in (0.0, 0.8, 14.5):
        field = FieldConfig(0.0, 2.0, 6)
        report = compare_states(closed_form_rho(tau, field), full_evolution(field, tau))
        assert report.max_abs_diff < 1e-14


def test_oracle_check_rejects_large_truncation():
    with pytest.raises(ValueError, match="^oracle_n_max must be <= 80 for oracle-check, got 81$"):
        run_oracle_check(SweepConfig(mode="oracle-check", oracle_n_max=81))


def test_oracle_check_passes_at_production_truncation(tmp_path):
    out = tmp_path / "oracle.txt"
    assert main(["--mode", "oracle-check", "--oracle-n-max", "80", "--out", str(out)]) == 0
    report = out.read_text()
    assert "# n_max=80 " in report
    assert "# result: PASS" in report


def test_oracle_check_above_the_cap_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "oracle.txt"
    assert main(["--mode", "oracle-check", "--oracle-n-max", "81", "--out", str(out)]) == 2
    assert "oracle_n_max must be <= 80 for oracle-check, got 81" in capsys.readouterr().err
    assert not out.exists()


def test_negative_oracle_truncation_names_its_flag(tmp_path, capsys):
    out = tmp_path / "oracle.txt"
    assert main(["--mode", "oracle-check", "--oracle-n-max", "-1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: oracle_n_max must be a non-negative integer, got -1\n"
    assert captured.out == ""
    assert not out.exists()


def test_bool_oracle_truncation_is_a_usage_error(tmp_path, capsys, monkeypatch):
    with pytest.raises(ValueError, match="oracle_n_max must be a non-negative integer, got True"):
        SweepConfig(mode="oracle-check", oracle_n_max=True)
    # no command-line string parses to True, so the parser's default carries it
    parser = cli.build_parser()
    parser.set_defaults(oracle_n_max=True)
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    out = tmp_path / "oracle.txt"
    assert main(["--mode", "oracle-check", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: oracle_n_max must be a non-negative integer, got True\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("value", [-5, True])
def test_bad_truncation_is_a_usage_error_in_every_mode(mode, value, tmp_path, capsys, monkeypatch):
    # refused where it enters, also by oracle-check, which never reads n_max
    with pytest.raises(ValueError, match=f"^n_max must be a non-negative integer, got {value}$"):
        SweepConfig(mode=mode, n_max=value)
    # no command-line string parses to True, so the parser's default carries it
    parser = cli.build_parser()
    parser.set_defaults(n_max=value)
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    out = tmp_path / "out.txt"
    assert main(["--mode", mode, "--out", str(out)]) == 2
    assert main(["--mode", mode, "--n-max", "-5", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: n_max must be a non-negative integer, got {value}\n"
        "error: n_max must be a non-negative integer, got -5\n"
    )
    assert captured.out == ""
    assert not out.exists()


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(mode="bogus")
    with pytest.raises(ValueError):
        SweepConfig(tau_steps=0)
    with pytest.raises(ValueError, match=r"^tau_end must be >= tau_start, got tau_start=2 tau_end=1$"):
        SweepConfig(tau_start=2, tau_end=1)
    with pytest.raises(ValueError, match=r"^s_end must be >= s_start, got s_start=2 s_end=1$"):
        SweepConfig(s_start=2, s_end=1)
    with pytest.raises(ValueError):
        SweepConfig(theta=4.0)


@pytest.mark.parametrize(
    "name, label",
    [("s", "squeeze parameter s")]
    + [(name, name) for name in ("tau", "tau_start", "tau_end", "s_start", "s_end")],
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_sweep_bounds_name_their_field(name, label, value):
    with pytest.raises(ValueError, match=rf"^{label} must be finite and >= 0, got {value}$"):
        SweepConfig(**{name: value})


@pytest.mark.parametrize("name", ["tau_steps", "s_steps"])
@pytest.mark.parametrize("value", [True, False, 0, -3, 2.5, "4"])
def test_step_counts_must_be_positive_ints(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be a positive integer, got {value!r}$"):
        SweepConfig(**{name: value})


@pytest.mark.parametrize(
    "name, label",
    [("s", "squeeze parameter s")]
    + [
        (name, name)
        for name in ("tau", "tau_start", "tau_end", "s_start", "s_end", "theta", "tolerance")
    ],
)
@pytest.mark.parametrize("value", [True, False, np.True_])
def test_sweep_bounds_refuse_bools(name, label, value):
    # a bool would otherwise be read as 1.0 or 0.0
    bound = {"theta": r"in \[0, pi\]", "tolerance": "> 0"}.get(name, ">= 0")
    with pytest.raises(ValueError, match=rf"^{label} must be a finite number {bound}, not a bool"):
        SweepConfig(**{name: value})


@pytest.mark.parametrize(
    "name, label",
    [("s", "squeeze parameter s")]
    + [
        (name, name)
        for name in ("tau", "tau_start", "tau_end", "s_start", "s_end", "theta", "tolerance")
    ],
)
@pytest.mark.parametrize("value", [[0.5], [0, 1], np.array([1e-8])])
def test_sweep_scalars_refuse_sequences(name, label, value):
    # a sequence would otherwise be stored as given, or fail later with a bare TypeError
    with pytest.raises(ValueError, match=rf"^{label} must be one number, not a sequence"):
        SweepConfig(**{name: value})


def test_step_counts_accept_numpy_ints():
    assert SweepConfig(tau_steps=np.int64(3), s_steps=np.int32(2)).tau_steps == 3


@pytest.mark.parametrize("axis", ["tau", "s"])
def test_step_counts_above_the_bound_are_refused_before_the_span_check(axis):
    # a count too large to allocate is refused by its name, whatever the
    # span; at the bound the span check still applies
    name = f"{axis}_steps"
    assert SweepConfig(**{name: MAX_SWEEP_STEPS}) == SweepConfig()._replace(**{name: MAX_SWEEP_STEPS})
    for steps in (MAX_SWEEP_STEPS + 1, 10**400):
        with pytest.raises(ValueError, match=rf"^{name} must be <= {MAX_SWEEP_STEPS}, got {steps}$"):
            SweepConfig(**{name: steps, f"{axis}_end": 1e300})
    span = rf"^{axis}_end must keep \({axis}_end - {axis}_start\) \* \({name} - 1\) finite"
    with pytest.raises(ValueError, match=span):
        SweepConfig(**{name: MAX_SWEEP_STEPS, f"{axis}_end": 1e303})


@pytest.mark.parametrize("mode", MODES)
def test_n_max_above_the_cap_is_refused_in_every_mode(mode):
    # the cap lies above the truncation that keeps 1e-12 of the norm at s = 3
    assert MAX_N_MAX >= 2786
    assert SweepConfig(mode=mode, n_max=MAX_N_MAX).n_max == MAX_N_MAX
    for n_max in (MAX_N_MAX + 1, 10**400):
        with pytest.raises(ValueError, match=rf"^n_max must be <= {MAX_N_MAX}, got {n_max}$"):
            SweepConfig(mode=mode, n_max=n_max)


@pytest.mark.parametrize(
    "args, message",
    [
        (["--mode", "tau-sweep", "--tau-end", "inf"], "tau_end must be finite and >= 0, got inf"),
        (["--mode", "tau-sweep", "--tau-start", "nan"], "tau_start must be finite and >= 0, got nan"),
        (["--mode", "s-sweep", "--s-start", "-0.5"], "s_start must be finite and >= 0, got -0.5"),
        (["--mode", "s-sweep", "--s-end", "inf"], "s_end must be finite and >= 0, got inf"),
        (["--mode", "s-sweep", "--tau", "nan"], "tau must be finite and >= 0, got nan"),
        (["--mode", "s-sweep", "--s-steps", "-2"], "s_steps must be a positive integer, got -2"),
        (["--mode", "tau-sweep", "--tau-steps", str(10**30)], f"tau_steps must be <= 1000000, got {10**30}"),
        (["--mode", "s-sweep", "--s-steps", str(10**14)], f"s_steps must be <= 1000000, got {10**14}"),
        (["--mode", "tau-sweep", "--n-max", "10000000", "--tau-steps", "3"], "n_max must be <= 4000, got 10000000"),
    ],
)
def test_cli_sweep_bounds_are_usage_errors(args, message, capsys):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_kernel_solves_only_b_global_blocks(eigh_solves, capsys):
    # B's global transpose, the only one the CSV reports, takes its two 3x3
    # index blocks in closed form from the elements: no eigensolve at all
    args = ["--n-max", "12", "--s", "0.8", "--theta", "2.0"]
    rows = {
        7: ["--mode", "tau-sweep", "--tau-steps", "7", "--tau-end", "3"],
        5: ["--mode", "s-sweep", "--s-steps", "5", "--tau", "2.5"],
        1: ["--mode", "single-point", "--tau", "0.8"],
    }
    for count, mode in rows.items():
        assert eigh_solves(main, [*args, *mode]) == {}
        assert len(parse_csv(capsys.readouterr().out)[1]) == count


def test_main_writes_file_and_returns_zero(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "--mode", "tau-sweep",
            "--s", "0.8", "--theta", "2.0", "--n-max", "12",
            "--tau-start", "0", "--tau-end", "1", "--tau-steps", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith("# cavity3q sweep")
    header, rows = parse_csv(text)
    assert header == COLUMNS and len(rows) == 3


def test_main_identical_invocations_are_byte_identical(tmp_path):
    args = [
        "--mode", "s-sweep",
        "--tau", "2.5", "--theta", "2.0", "--n-max", "12",
        "--s-start", "0", "--s-end", "1", "--s-steps", "4",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_main_usage_error_exit_codes():
    with pytest.raises(SystemExit) as exc:
        main(["--mode", "nonsense"])
    assert exc.value.code == 2
    # domain errors detected after parsing also exit with the usage code
    assert main(["--mode", "tau-sweep", "--tau-steps", "0"]) == 2
    assert main(["--theta", "9.0"]) == 2


def test_main_stdout_output(capsys):
    code = main(
        [
            "--mode", "single-point",
            "--tau", "0.5", "--s", "0.6", "--theta", "2.0", "--n-max", "10",
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    header, rows = parse_csv(captured)
    assert header == COLUMNS and len(rows) == 1


def test_main_unwritable_output_path(tmp_path):
    code = main(
        [
            "--mode", "single-point",
            "--tau", "0.5", "--s", "0.6", "--theta", "2.0", "--n-max", "10",
            "--out", str(tmp_path / "missing_dir" / "out.csv"),
        ]
    )
    assert code == 1


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_is_a_usage_error(value, capsys):
    with pytest.raises(ValueError, match="tolerance"):
        SweepConfig(mode="oracle-check", tolerance=float(value))
    assert main(["--mode", "oracle-check", "--oracle-n-max", "4", "--tolerance", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: tolerance must be finite and > 0, got {value}\n"


def test_truncation_warning_on_default_s_sweep(capsys):
    text = run_sweep(SweepConfig(mode="s-sweep", tau=14.5, s_steps=200))
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("warning: n_max=80 truncation drops 0.00265 of the norm at s=2 ")
    # the CSV carries no trace of the warning
    assert "warning" not in text
    header, rows = parse_csv(text)
    assert max(r[header.index("truncation_deficit")] for r in rows) > 1e-8


def test_no_truncation_warning_on_default_tau_sweep(capsys):
    text = run_sweep(SweepConfig())
    assert capsys.readouterr().err == ""
    header, rows = parse_csv(text)
    assert rows[0][header.index("truncation_deficit")] == pytest.approx(1.6e-13, rel=0.05)


def test_single_point_row_is_the_scalar_report():
    # the CSV columns against the scalar API, field by field
    cfg = SweepConfig(mode="single-point", tau=2.3, **SMALL)
    _, rows = parse_csv(run_sweep(cfg))
    field = FieldConfig(cfg.s, cfg.theta, cfg.n_max)
    rho = closed_form_rho(cfg.tau, field)
    report = negativity_report(rho)
    B, A1 = QubitLabel.B, QubitLabel.A1
    row = [
        cfg.tau,
        cfg.s,
        *diagonal_probabilities(rho).tolist(),
        report.n_g[B],
        report.n_g[B],  # the N_G_B_analytic column
        report.n_psdg[B],
        report.n_psdg[A1],
        report.e_3[B],
        report.e_psd["B-BA1"],
        report.e_psd["A1-A1A2"],
        report.e_psd["A1-A1B"],
        report.linear_entropy_b,
        report.w1_fidelity,
        report.bell_projection,
        truncation_deficit(field),
    ]
    assert [float(f"{v + 0.0:.12g}") for v in row] == rows[0]


def test_parser_flags_are_the_config_fields_with_its_defaults():
    parser = cli.build_parser()
    actions = {action.dest: action for action in parser._actions if action.dest != "help"}
    assert {name: action.default for name, action in actions.items()} == SweepConfig._field_defaults
    for name, action in actions.items():
        assert action.option_strings == ["--" + name.replace("_", "-")]
        assert action.type is type(SweepConfig._field_defaults[name]), name
        assert (action.choices is None) == (name != "mode"), name
    assert tuple(actions["mode"].choices) == MODES
    assert {name: action.help for name, action in actions.items() if action.help is not None} == {
        "s": "squeeze parameter",
        "theta": "beam-splitter angle, radians",
        "n_max": "Fock truncation",
        "tau": "interaction time for s-sweep/single-point",
        "out": "output path, '-' for stdout",
    }
    assert SweepConfig(**vars(parser.parse_args([]))) == SweepConfig()


@pytest.mark.parametrize("s", [400.0, 800.0])
def test_large_squeezing_gives_the_empty_state_without_overflow(s, capsys):
    # cosh(s)^2 overflows above s ~ 355 and cosh(s) above ~ 710; the
    # correctly rounded field weights are 0 (RuntimeWarnings fail the suite)
    assert not closed_form_grid([0.8, 14.5], [s], 1.1, 20).any()
    assert not full_evolution_grid([0.8, 14.5], [s], 1.1, 10).any()
    assert main(["--mode", "single-point", "--s", str(s)]) == 0
    captured = capsys.readouterr()
    assert "truncation drops 1 of the norm" in captured.err
    header, rows = parse_csv(captured.out)
    assert rows[0][header.index("truncation_deficit")] == 1.0


def _variant_1(matrices):
    # DISCREPANCIES.md 1: opposite sign of the |000> <-> sym-excited coherence
    for i, j in ((0, 5), (0, 6), (5, 0), (6, 0)):
        matrices[..., i, j] = -matrices[..., i, j]
    return matrices


def test_oracle_check_rejects_discrepancy_variants(monkeypatch):
    cfg = SweepConfig(mode="oracle-check", oracle_n_max=8, tolerance=1e-8)
    with monkeypatch.context() as patch:
        _corrupt_closed_forms(patch, _variant_1)
        report, status = run_oracle_check(cfg)
    assert status == 1 and "# result: FAIL" in report
    assert "entry=[0,5]" in report

    # DISCREPANCIES.md 2: sqrt(q-1)/sqrt(2q-1) leading the sym-ground <-> |111>
    # coherence; only that element (r26, the last) is taken from the slipped run
    amplitudes = tc._pair_block_amplitudes

    def slipped(cos_f, sin_f):
        stay, one_up, two_up = amplitudes(cos_f, sin_f)
        q = np.arange(one_up.shape[1], dtype=float)
        return stay, one_up * np.sqrt(np.maximum(q - 1.0, 0.0) / np.maximum(q, 1.0)), two_up

    def variant_2(taus, squeezes, theta, n_max):
        elements = tc.closed_form_grid(taus, squeezes, theta, n_max)
        monkeypatch.setattr(tc, "_pair_block_amplitudes", slipped)
        elements[..., 7] = tc.closed_form_grid(taus, squeezes, theta, n_max)[..., 7]
        monkeypatch.setattr(tc, "_pair_block_amplitudes", amplitudes)
        return elements

    # the production tau-sweep's arithmetic axis takes its cos and sin from
    # the angle-addition tables, and its r26 carries the slip as well
    sweep = SweepConfig()
    taus = np.linspace(sweep.tau_start, sweep.tau_end, sweep.tau_steps)
    assert tc._grid_residuals(taus) is not None
    shipped = tc.closed_form_grid(taus, [sweep.s], sweep.theta, sweep.n_max)
    varied = variant_2(taus, [sweep.s], sweep.theta, sweep.n_max)
    assert np.array_equal(varied[..., :7], shipped[..., :7])
    assert np.abs(varied[..., 7] - shipped[..., 7]).max() > 1e-3

    monkeypatch.setattr(cli, "closed_form_grid", variant_2)
    report, status = run_oracle_check(cfg)
    assert status == 1 and "# result: FAIL" in report
    assert "entry=[1,7]" in report
