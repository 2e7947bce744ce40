import numpy as np
import pytest

import cavity3q.cli as cli
import cavity3q.tavis_cummings as tc
from cavity3q import FieldConfig, closed_form_rho
from cavity3q.cli import (
    COLUMNS,
    SweepConfig,
    evaluate_point,
    main,
    run_oracle_check,
    run_s_sweep,
    run_single_point,
    run_tau_sweep,
)


def parse_csv(text):
    lines = [line for line in text.strip().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


SMALL = dict(s=0.8, theta=2.0, n_max=15)


def test_single_point_matches_degenerate_tau_sweep():
    point = SweepConfig(mode="single-point", tau=1.7, **SMALL)
    sweep = SweepConfig(mode="tau-sweep", tau_start=1.7, tau_end=1.7, tau_steps=1, **SMALL)
    _, rows_point = parse_csv(run_single_point(point))
    _, rows_sweep = parse_csv(run_tau_sweep(sweep))
    assert rows_point == rows_sweep
    assert len(rows_point) == 1


def test_tau_sweep_columns_and_grid():
    cfg = SweepConfig(mode="tau-sweep", tau_start=0.0, tau_end=2.0, tau_steps=5, **SMALL)
    header, rows = parse_csv(run_tau_sweep(cfg))
    assert header == COLUMNS
    assert len(rows) == 5
    assert [r[0] for r in rows] == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
    first = dict(zip(header, rows[0]))
    assert first["P1"] == pytest.approx(1.0, abs=1e-4)
    assert first["N_G_B"] == 0.0


def test_s_sweep_zero_squeezing_row_has_no_entanglement():
    cfg = SweepConfig(mode="s-sweep", tau=2.0, s_start=0.0, s_end=0.4, s_steps=3, theta=2.0, n_max=15)
    header, rows = parse_csv(run_s_sweep(cfg))
    row0 = dict(zip(header, rows[0]))
    assert row0["s"] == 0.0
    for key in ("N_G_B", "N_PSDG_B", "N_PSDG_A1", "E_PSD_B_BA1", "E_PSD_A1_A1A2", "E_PSD_A1_A1B"):
        assert abs(row0[key]) < 1e-12
    assert [r[1] for r in rows] == pytest.approx([0.0, 0.2, 0.4])


def test_csv_is_byte_deterministic():
    cfg = SweepConfig(mode="tau-sweep", tau_start=0.0, tau_end=3.0, tau_steps=7, **SMALL)
    assert run_tau_sweep(cfg) == run_tau_sweep(cfg)


def test_analytic_and_eigensolver_columns_agree():
    cfg = SweepConfig(mode="tau-sweep", tau_start=0.0, tau_end=6.0, tau_steps=13, **SMALL)
    header, rows = parse_csv(run_tau_sweep(cfg))
    for row in rows:
        record = dict(zip(header, row))
        assert record["N_G_B"] == pytest.approx(record["N_G_B_analytic"], abs=1e-10)


def test_oracle_check_passes_on_reduced_grid():
    cfg = SweepConfig(mode="oracle-check", oracle_n_max=10, tolerance=1e-8)
    report, status = run_oracle_check(cfg)
    assert status == 0
    assert "# result: PASS" in report
    assert report.count("\n") >= 36


def test_oracle_check_flags_corruption():
    cfg = SweepConfig(mode="oracle-check", oracle_n_max=6, tolerance=1e-8)

    def corrupt(matrix):
        matrix[4, 4] += 1e-3
        return matrix

    report, status = run_oracle_check(cfg, corrupt=corrupt)
    assert status == 1
    assert "# result: FAIL" in report
    assert "entry=[4,4]" in report


def test_zero_squeezing_is_exact_everywhere():
    # without squeezing both paths produce the same pure ground state exactly
    from cavity3q import FieldConfig, closed_form_rho, compare_states, full_evolution

    for tau in (0.0, 0.8, 14.5):
        field = FieldConfig(0.0, 2.0, 6)
        report = compare_states(closed_form_rho(tau, field), full_evolution(field, tau))
        assert report.max_abs_diff < 1e-14


def test_oracle_check_rejects_large_truncation():
    with pytest.raises(ValueError, match="limited to n_max <= 80"):
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
    assert "oracle-check is limited to n_max <= 80" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(mode="bogus")
    with pytest.raises(ValueError):
        SweepConfig(tau_steps=0)
    with pytest.raises(ValueError):
        SweepConfig(tau_start=2.0, tau_end=1.0)
    with pytest.raises(ValueError):
        SweepConfig(theta=4.0)


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
    text = run_s_sweep(SweepConfig(mode="s-sweep", tau=14.5, s_steps=200))
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("warning: n_max=80 truncation drops 0.00265 of the norm at s=2 ")
    # the CSV carries no trace of the warning
    assert "warning" not in text
    header, rows = parse_csv(text)
    assert max(r[header.index("truncation_deficit")] for r in rows) > 1e-8


def test_no_truncation_warning_on_default_tau_sweep(capsys):
    text = run_tau_sweep(SweepConfig())
    assert capsys.readouterr().err == ""
    header, rows = parse_csv(text)
    assert rows[0][header.index("truncation_deficit")] == pytest.approx(1.6e-13, rel=0.05)


def test_evaluate_point_is_the_single_point_row():
    cfg = SweepConfig(mode="single-point", tau=2.3, **SMALL)
    _, rows = parse_csv(run_single_point(cfg))
    row = evaluate_point(closed_form_rho(cfg.tau, FieldConfig(cfg.s, cfg.theta, cfg.n_max)))
    assert [float(f"{v + 0.0:.12g}") for v in row] == rows[0]


def _variant_1(matrix):
    # DISCREPANCIES.md 1: opposite sign of the |000> <-> sym-excited coherence
    for i, j in ((0, 5), (0, 6), (5, 0), (6, 0)):
        matrix[i, j] = -matrix[i, j]
    return matrix


def test_oracle_check_rejects_discrepancy_variants(monkeypatch):
    cfg = SweepConfig(mode="oracle-check", oracle_n_max=8, tolerance=1e-8)
    report, status = run_oracle_check(cfg, corrupt=_variant_1)
    assert status == 1 and "# result: FAIL" in report
    assert "entry=[0,5]" in report

    # DISCREPANCIES.md 2: sqrt(q-1)/sqrt(2q-1) leading the sym-ground <-> |111>
    # coherence; only that element (r26, the last) is taken from the slipped run
    amplitudes = tc._pair_block_amplitudes

    def slipped(taus, count):
        stay, one_up, two_up = amplitudes(taus, count)
        q = np.arange(count, dtype=float)
        return stay, one_up * np.sqrt(np.maximum(q - 1.0, 0.0) / np.maximum(q, 1.0)), two_up

    def variant_2(tau, field):
        elements = tc.closed_form_grid([tau], [field.s], field.theta, field.n_max)[0, 0]
        monkeypatch.setattr(tc, "_pair_block_amplitudes", slipped)
        elements[7] = tc.closed_form_grid([tau], [field.s], field.theta, field.n_max)[0, 0, 7]
        monkeypatch.setattr(tc, "_pair_block_amplitudes", amplitudes)
        return tc.rho_from_elements(elements, tau, field.s, field.theta, field.n_max)

    monkeypatch.setattr(cli, "closed_form_rho", variant_2)
    report, status = run_oracle_check(cfg)
    assert status == 1 and "# result: FAIL" in report
    assert "entry=[1,7]" in report
