"""Command-line front end: subcommands, exit codes, output files."""
import json
from fractions import Fraction

import pytest

from derivation import eliminate_border_2d, eliminate_hanging
from twogrid import cli, stencils
from twogrid.cli import main, _parse_schedule
from twogrid.errors import BadParams

CSV_HEADER = "N,r,lambda,unknowns,err_coarse,err_fine,order_coarse,order_fine"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_run_prints_csv_report(capsys):
    rc, out, err = run_cli(capsys, "run", "--problem", "piecewise_kappa_1d",
                           "--N", "10", "--r", "4")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("10,4,2,")
    assert err == ""


def test_run_json_to_file(tmp_path, capsys):
    path = tmp_path / "case.json"
    rc, out, _ = run_cli(capsys, "run", "--problem", "piecewise_kappa_1d",
                         "--N", "10", "--r", "4", "--format", "json",
                         "--out", str(path))
    assert rc == 0
    assert out == ""
    row = json.loads(path.read_text())[0]
    assert row["problem"] == "piecewise_kappa_1d"
    assert row["m_matrix"]["sign_ok"] is True
    assert row["err_coarse"] > 0


def test_run_no_check_skips_operator_audit(tmp_path, capsys):
    path = tmp_path / "case.json"
    rc, _, _ = run_cli(capsys, "run", "--problem", "piecewise_kappa_1d",
                       "--N", "10", "--r", "2", "--no-check",
                       "--format", "json", "--out", str(path))
    assert rc == 0
    assert "m_matrix" not in json.loads(path.read_text())[0]


def test_run_exit_2_when_sign_pattern_fails(capsys):
    # the convection term of the layer operator and the mixed-order strip
    # in h2 mode break the sign pattern; each row is named once, ascending,
    # and row-sum offenders are not named
    for argv, rows in (
            (("boundary_layer_1d", "--N", "10", "--r", "2"), range(1, 9)),
            (("boundary_layer_1d", "--N", "4", "--r", "2"), range(1, 6)),
            (("line_interface_2d", "--N", "4", "--hf-mode", "h2"),
             range(18, 26))):
        rc, out, err = run_cli(capsys, "run", "--problem", *argv)
        assert rc == 2
        assert err == ("M-matrix sign check failed; offending rows: "
                       f"{list(rows)}\n")
        assert out.splitlines()[0] == CSV_HEADER


@pytest.mark.parametrize("argv", [
    pytest.param(("run", "--param", "kappa_minus=-1"), id="negative-kappa"),
    pytest.param(("run", "--param", "kappa_minus"), id="param-without-value"),
    pytest.param(("run", "--param", "kappa_minus=1/0"), id="param-over-zero"),
    pytest.param(("run", "--param", "kappa_minus=abc"), id="param-not-number"),
    pytest.param(("run", "--lam", "nan"), id="lam-nan"),
    pytest.param(("run", "--lam", "inf"), id="lam-inf"),
    pytest.param(("run", "--lam", "1e400"), id="lam-overflow"),
    pytest.param(("study", "--schedule", "10:x"), id="schedule-bad-ratio"),
    pytest.param(("study", "--schedule", "10:2,,20:2"),
                 id="schedule-empty-item"),
])
def test_run_exit_1_on_bad_parameters(capsys, argv):
    command, *rest = argv
    size = ["--N", "10"] if command == "run" else []
    rc, _, err = run_cli(capsys, command, "--problem", "piecewise_kappa_1d",
                         *size, *rest)
    assert rc == 1
    assert err.startswith("error:")


def test_unknown_problem_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--problem", "nonesuch", "--N", "10"])


@pytest.mark.parametrize("value", ["abc", "1/0"])
def test_bad_param_number_exits_1(capsys, value):
    rc, out, err = run_cli(capsys, "run", "--problem", "piecewise_kappa_1d",
                           "--N", "10", "--param", f"kappa_minus={value}")
    assert rc == 1 and out == ""
    assert err == ("error: --param kappa_minus expects a rational number, "
                   f"got {value!r}\n")


@pytest.mark.parametrize("pair", ["alpha", "=3", " =3"])
def test_param_without_key_or_value_names_the_form(capsys, pair):
    rc, out, err = run_cli(capsys, "run", "--problem", "piecewise_kappa_1d",
                           "--N", "10", "--param", pair)
    assert rc == 1 and out == ""
    assert err == f"error: --param expects KEY=VALUE, got {pair!r}\n"


@pytest.mark.parametrize("flag", ["--out", "--dump-grid", "--dump-matrix"])
def test_unwritable_path_is_a_one_line_error(tmp_path, capsys, flag):
    path = tmp_path / "missing" / "file"
    rc, _, err = run_cli(capsys, "run", "--problem", "piecewise_kappa_1d",
                         "--N", "10", flag, str(path))
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


def no_solve(*args, **kwargs):
    raise AssertionError("solved before the output paths were checked")


@pytest.mark.parametrize("argv", [
    ("run", "--N", "10", "--out"), ("run", "--N", "10", "--dump-grid"),
    ("run", "--N", "10", "--dump-matrix"),
    ("study", "--schedule", "10:2", "--out")],
    ids=["run-out", "run-dump-grid", "run-dump-matrix", "study-out"])
def test_unwritable_path_fails_before_the_solve(tmp_path, capsys,
                                                monkeypatch, argv):
    monkeypatch.setattr(cli, "run_case", no_solve)
    monkeypatch.setattr(cli, "convergence_study", no_solve)
    path = tmp_path / "missing" / "file"
    command, *rest = argv
    rc, _, err = run_cli(capsys, command, "--problem", "piecewise_kappa_1d",
                         *rest, str(path))
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


def test_path_check_keeps_files_as_they_were(tmp_path, capsys, monkeypatch):
    # the check truncates no existing file and leaves no new one behind
    def fail(*args, **kwargs):
        raise BadParams("stop")

    monkeypatch.setattr(cli, "run_case", fail)
    old, new = tmp_path / "old.csv", tmp_path / "new.json"
    old.write_text("kept")
    rc, _, err = run_cli(capsys, "run", "--problem", "piecewise_kappa_1d",
                         "--N", "10", "--out", str(old), "--dump-grid",
                         str(new))
    assert (rc, err) == (1, "error: stop\n")
    assert old.read_text() == "kept" and not new.exists()


@pytest.mark.parametrize("flag", ["--kappa-minus", "--kappa-plus", "--eps",
                                  "--lambda"])
def test_case_parameters_have_one_spelling(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--problem", "piecewise_kappa_1d", "--N", "10", flag,
              "2"])
    assert exc.value.code == 2


def test_named_flags_accept_fractions(tmp_path, capsys):
    path = tmp_path / "case.json"
    rc, _, _ = run_cli(capsys, "run", "--problem", "piecewise_kappa_1d",
                       "--N", "10", "--r", "4", "--param", "kappa_minus=7/2",
                       "--param", "kappa_plus=9", "--format", "json",
                       "--out", str(path))
    assert rc == 0
    row = json.loads(path.read_text())[0]
    assert 0 < row["err_coarse"] < 1e-3


def test_lam_is_a_rational_number(capsys):
    rc, out, _ = run_cli(capsys, "run", "--problem", "piecewise_kappa_1d",
                         "--N", "10", "--r", "4", "--lam", "3/2")
    assert rc == 0
    assert out.splitlines()[1].startswith("10,4,1.5,")
    rc, out, _ = run_cli(capsys, "study", "--problem", "piecewise_kappa_1d",
                         "--schedule", "10:4", "--lam", "3/2")
    assert rc == 0
    assert out.splitlines()[1].startswith("10,4,1.5,")
    rc, out, err = run_cli(capsys, "run", "--problem", "piecewise_kappa_1d",
                           "--N", "10", "--lam", "abc")
    assert rc == 1 and out == ""
    assert err == "error: --lam expects a rational number, got 'abc'\n"


def test_run_exit_2_when_no_sign_feasible_stencil(capsys):
    rc, out, err = run_cli(capsys, "run", "--problem", "flower", "--N", "10",
                           "--r", "2", "--lam", "1")
    assert rc == 2 and out == ""
    assert err == "error: no sign-feasible fitted stencil at (-0.5,-0.1)\n"


def test_run_h2_mode_reports_effective_ratio(capsys):
    rc, out, _ = run_cli(capsys, "run", "--problem", "piecewise_kappa_1d",
                         "--N", "10", "--hf-mode", "h2")
    assert rc == 0
    assert out.splitlines()[1].startswith("10,10,")


def test_study_schedule_and_orders(capsys):
    rc, out, _ = run_cli(capsys, "study", "--problem", "piecewise_kappa_1d",
                         "--schedule", "10:4,20:4")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 3
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert (first[6], first[7]) == ("", "")
    # orders are attached on the refined rows; values are checked against
    # the stored errors in the harness tests, here they just have to parse
    float(second[6]), float(second[7])
    assert second[0] == "20"


def test_study_exit_2_counts_failing_cases(capsys):
    rc, _, err = run_cli(capsys, "study", "--problem", "boundary_layer_1d",
                         "--schedule", "10:2")
    assert rc == 2
    assert "failed on 1 case(s)" in err


def test_parse_schedule_defaults_r_to_2():
    assert _parse_schedule("10, 20:4") == [(10, 2), (20, 4)]


def test_derive_hanging_matches_library(capsys):
    rc, out, _ = run_cli(capsys, "derive-stencil", "--kind", "hanging",
                         "--r", "2", "--j", "1")
    assert rc == 0
    got = json.loads(out)
    st = stencils.derive_hanging_coeffs(2, 1)
    expect = {f"{k[0]},{k[1]}": str(v) for k, v in st.alphas.items()}
    assert got["alphas"] == expect
    assert got["alpha_sum"] == "0"
    assert got["beta_sum"] == "1"


def test_derive_hanging_with_reaction_matches_elimination(capsys):
    rc, out, _ = run_cli(capsys, "derive-stencil", "--kind", "hanging",
                         "--r", "4", "--j", "1", "--kappa", "7/2",
                         "--K", "3/2")
    assert rc == 0
    st = eliminate_hanging(4, 1, kappa=Fraction(7, 2), K=Fraction(3, 2))
    assert json.loads(out) == {
        "alphas": {f"{k[0]},{k[1]}": str(v)
                   for k, v in sorted(st.alphas.items())},
        "betas": {f"{k[0]},{k[1]}": str(v)
                  for k, v in sorted(st.betas.items())},
        "alpha_sum": "3/2",
        "beta_sum": "1",
    }


def test_derive_border1d_nonuniform_second_difference(capsys):
    # with kappa=1 and K=0 the U-weights are the classic nonuniform
    # 3-point second difference 2/(h1(h1+h2)), -2/(h1 h2), 2/(h2(h1+h2))
    rc, out, _ = run_cli(capsys, "derive-stencil", "--kind", "border-1d",
                         "--h1", "1", "--h2", "1/2")
    assert rc == 0
    got = json.loads(out)
    assert got["alphas"] == {"-1": "4/3", "0": "-4", "1": "8/3"}
    assert got["alpha_sum"] == "0"
    assert got["beta_sum"] == "1"


def test_derive_kind_has_one_spelling(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["derive-stencil", "--kind", "border1d", "--h1", "1",
              "--h2", "1/3"])
    assert exc.value.code == 2


def test_derive_border2d_matches_library(capsys):
    rc, out, _ = run_cli(capsys, "derive-stencil", "--kind", "border-2d",
                         "--h1", "1", "--h2", "1/2", "--hy", "1")
    assert rc == 0
    got = json.loads(out)
    st = eliminate_border_2d(1, Fraction(1, 2), 1)
    assert got["alphas"] == {f"{k[0]},{k[1]}": str(v)
                             for k, v in st.alphas.items()}
    assert got["betas"] == {f"{k[0]},{k[1]}": str(v)
                            for k, v in st.betas.items()}
    assert got["beta_sum"] == "1"


def test_derive_border2d_rejects_scaled_kappa(capsys):
    rc, _, err = run_cli(capsys, "derive-stencil", "--kind", "border-2d",
                         "--h1", "1", "--h2", "1/2", "--hy", "1",
                         "--kappa", "2")
    assert rc == 1
    assert "border-2d" in err


def _malformed(flag, value):
    return pytest.param("border-2d", flag, value,
                        f"{flag} expects a rational number, got {value!r}",
                        id=f"{flag}-{value}")


@pytest.mark.parametrize("kind, flag, value, message", [
    _malformed("--h1", "abc"), _malformed("--h2", "1/0"),
    _malformed("--hy", "x"), _malformed("--kappa", "1/0"),
    _malformed("--K", "nan"),
    # a value of None leaves the flag out
    pytest.param("border-1d", "--h2", None, "border-1d needs --h1 and --h2",
                 id="border-1d-no-h2"),
    pytest.param("border-2d", "--hy", None,
                 "border-2d needs --h1, --h2 and --hy", id="border-2d-no-hy"),
    pytest.param("border-1d", "--h1", "0",
                 "spacings must be positive, got h1=0, h2=1/2",
                 id="border-1d-h1-zero"),
    pytest.param("border-2d", "--hy", "0", "spacings must be positive",
                 id="border-2d-hy-zero"),
])
def test_derive_exit_1_on_malformed_number(capsys, kind, flag, value,
                                           message):
    args = {"--h1": "1", "--h2": "1/2", "--hy": "1", "--kappa": "1",
            "--K": "0", flag: value}
    rc, out, err = run_cli(capsys, "derive-stencil", "--kind", kind,
                           *(a for kv in args.items() if kv[1] is not None
                             for a in kv))
    assert rc == 1 and out == ""
    assert err == f"error: {message}\n"


def test_derive_hanging_requires_r_and_j(capsys):
    rc, _, err = run_cli(capsys, "derive-stencil", "--kind", "hanging")
    assert rc == 1
    assert err.startswith("error:")


def test_reference_subcommand_prints_static_data(capsys):
    rc, out, _ = run_cli(capsys, "reference", "--problem", "peskin_circle")
    assert rc == 0
    ref = json.loads(out)
    assert ref["IB"]["40"] == pytest.approx(2.6467e-2)
    assert ref["IIM"]["160"] == pytest.approx(6.6573e-4)
    assert "source" in ref


def test_reference_subcommand_without_data(capsys):
    rc, _, err = run_cli(capsys, "reference", "--problem", "flower")
    assert rc == 1
    assert err.startswith("error:")


def test_dump_matrix_writes_matrixmarket(tmp_path, capsys):
    path = tmp_path / "A.mtx"
    rc, _, _ = run_cli(capsys, "run", "--problem", "piecewise_kappa_1d",
                       "--N", "10", "--r", "2", "--dump-matrix", str(path))
    assert rc == 0
    head = path.read_text().splitlines()[0]
    assert head.startswith("%%MatrixMarket matrix coordinate")


def test_dump_grid_writes_node_records(tmp_path, capsys):
    path = tmp_path / "grid.json"
    rc, _, _ = run_cli(capsys, "run", "--problem", "piecewise_kappa_1d",
                       "--N", "10", "--r", "2", "--dump-grid", str(path))
    assert rc == 0
    rows = json.loads(path.read_text())
    assert all(set(row) == {"id", "x", "y", "tag"} for row in rows)
    tags = {row["tag"] for row in rows}
    assert {"boundary", "coarse_regular", "fine_regular", "border"} <= tags


def test_out_csv_file(tmp_path, capsys):
    path = tmp_path / "case.csv"
    rc, _, _ = run_cli(capsys, "run", "--problem", "piecewise_kappa_1d",
                       "--N", "10", "--r", "2", "--out", str(path))
    assert rc == 0
    assert path.read_text().splitlines()[0] == CSV_HEADER
