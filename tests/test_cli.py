import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from dedsums import cli


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_sum_command_with_oracle():
    code, out, _ = run_cli(
        "sum", "--pair", "chi3,chi3", "--k", "2", "--a", "1", "--c", "9", "--oracle", "--tilde"
    )
    assert code == cli.EXIT_OK
    assert out.startswith("S = ")
    assert "oracle residual" in out


def test_sum_value_in_2Z():
    code, out, _ = run_cli("sum", "--pair", "chi3,chi3", "--k", "2", "--a", "10", "--c", "9", "--tilde")
    assert code == cli.EXIT_OK
    line = [l for l in out.splitlines() if l.startswith("S~")][0]
    from fractions import Fraction

    value = Fraction(line.split("=")[1].strip())
    assert (value / 2).denominator == 1


def test_parity_violation_exit_code():
    code, _, err = run_cli("sum", "--pair", "chi3,chi3", "--k", "3", "--a", "1", "--c", "9")
    assert code == cli.EXIT_PARITY
    assert "parity" in err


def test_unknown_pair_exit_code():
    code, _, err = run_cli("sum", "--pair", "chi6,chi3", "--k", "2", "--a", "1", "--c", "18")
    assert code == cli.EXIT_USAGE
    assert "character" in err


@pytest.mark.parametrize("pair", ["chi3", "chi3,chi4,chi5", "5:x,3:1", "0:1,3:1"])
def test_malformed_pair_is_usage_error(pair):
    code, out, err = run_cli("sum", "--pair", pair, "--k", "2", "--a", "1", "--c", "15")
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_domain_error_exit_code():
    code, _, err = run_cli("gens", "--n", "4")
    assert code == cli.EXIT_DOMAIN


def test_hpoly_reference_value():
    code, out, _ = run_cli(
        "hpoly", "--pair", "chi5,chi5", "--k", "4", "--matrix", "[[51,104],[25,51]]"
    )
    assert code == cli.EXIT_OK
    assert out.strip() == "h_gamma(x) = -24/5*x^2 - 96/5*x - 96/5"


@pytest.mark.parametrize("matrix", ["[[1,2]]", "[[1.5,0],[0,1]]", "[[1,0],[0,true]]", "not json"])
def test_hpoly_malformed_matrix_is_usage_error(matrix):
    code, out, err = run_cli("hpoly", "--pair", "chi5,chi5", "--k", "4", "--matrix", matrix)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "matrix" in err


def test_gens_output():
    code, out, _ = run_cli("gens", "--n", "9")
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("#")
    assert all(l.startswith("[[") for l in lines[1:])


def test_table_csv_deterministic():
    code1, out1, _ = run_cli("table", "--j", "3", "--format", "csv")
    code2, out2, _ = run_cli("table", "--j", "3", "--format", "csv")
    assert code1 == code2 == cli.EXIT_OK
    assert out1 == out2
    rows = list(csv.DictReader(io.StringIO(out1)))
    assert len(rows) == 84
    assert {r["k"] for r in rows} == {"2", "3", "4", "5", "6", "7", "8", "9"}


def test_table_json():
    code, out, _ = run_cli("table", "--j", "2", "--format", "json")
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert len(payload) == 3
    assert all("cells" in t for t in payload)


def test_plotdata_periodic():
    code, out, _ = run_cli("plotdata", "--pair", "chi5,chi5", "--k", "4", "--j", "4")
    assert code == cli.EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    by_pair = {(int(r["a_num"]), int(r["a_den"])): r["value"] for r in rows}
    shifted = 0
    for (a, c), v in by_pair.items():
        if (a + c, c) in by_pair:
            shifted += 1
            assert by_pair[(a + c, c)] == v
    assert shifted > 0


def test_contain_command():
    code, out, _ = run_cli("contain", "--pair", "chi3,chi3", "--k", "2")
    assert code == cli.EXIT_OK
    assert "m = " in out and "contained in" in out


def test_contain_failed_certificate_exit_code(monkeypatch):
    from dedsums import analysis

    monkeypatch.setattr(analysis, "poly_space_member", lambda *args: False)
    code, _, err = run_cli("contain", "--pair", "chi3,chi3", "--k", "2")
    assert code == cli.EXIT_CHECK_FAILED
    assert "certificate" in err


def test_bounds_command():
    code, out, _ = run_cli("bounds", "--pair", "chi3,chi3", "--k", "2", "--cmax", "100", "--alpha", "0.5")
    assert code == cli.EXIT_OK
    assert "trivial bound respected: True" in out
    assert "L(0.5, 100)" in out


def test_verify_single_suite():
    code, out, _ = run_cli("verify", "--suite", "poly-space", "--seed", "7")
    assert code == cli.EXIT_OK
    assert out.startswith("PASS poly-space")


def test_table_jobs_pool_matches_serial():
    code1, out1, _ = run_cli("table", "--j", "2", "--format", "csv")
    code2, out2, _ = run_cli("table", "--j", "2", "--format", "csv", "--jobs", "2")
    assert code1 == code2 == cli.EXIT_OK
    assert out1 == out2


def test_table_pretty_format():
    code, out, _ = run_cli("table", "--j", "2")
    assert code == cli.EXIT_OK
    assert out.count("table") == 3
    assert "(chi5,chi5)" in out


def test_verify_output_deterministic():
    _, out1, _ = run_cli("verify", "--suite", "poly-space", "--seed", "11")
    _, out2, _ = run_cli("verify", "--suite", "poly-space", "--seed", "11")
    assert out1 == out2
