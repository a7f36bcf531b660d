import argparse
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from dedsums import cli
from dedsums.modgroup import Mat2


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


@pytest.mark.parametrize(
    "matrix",
    ["[[1,2]]", "[[1.5,0],[0,1]]", "[[1,0],[0,true]]", "not json"]
    # determinant other than 1
    + ["[[1,2],[3,4]]", "[[-1,0],[0,1]]", "[[0,0],[0,0]]"],
)
def test_hpoly_malformed_matrix_is_usage_error(matrix):
    code, out, err = run_cli("hpoly", "--pair", "chi5,chi5", "--k", "4", "--matrix", matrix)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "matrix" in err


@pytest.mark.parametrize(
    "m", [Mat2.identity(), Mat2(26, 1, 25, 1), Mat2(-24, 1, -25, 1), Mat2(0, -1, 1, 0), Mat2(-50, -1, -49, -1)]
)
def test_matrix_text_round_trips(m):
    assert cli._matrix(str(m)) == m


@pytest.mark.parametrize(
    "matrix,line",
    [
        ("[[1,2],[3,4]]", "determinant of [[1,2],[3,4]] is not 1"),
        ("[[1],[2,3]]", "expected a 2x2 array of integers, got '[[1],[2,3]]'"),
        ("[[true,0],[0,1]]", "expected a 2x2 array of integers, got '[[true,0],[0,1]]'"),
    ],
)
def test_matrix_usage_error_lines(matrix, line):
    # a determinant other than 1 is an argument type error like a format error
    with pytest.raises(argparse.ArgumentTypeError, match=re.escape(line)):
        cli._matrix(matrix)
    _, _, err = run_cli("hpoly", "--pair", "chi5,chi5", "--k", "4", "--matrix", matrix)
    assert err == f"bad option: argument --matrix: {line}\n"


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


def test_internal_key_error_is_not_a_domain_error(monkeypatch):
    # no input reaches a KeyError, so one raised inside a command is a bug
    from dedsums import analysis

    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(analysis, "containment_m", broken)
    with pytest.raises(KeyError):
        run_cli("contain", "--pair", "chi3,chi3", "--k", "2")


def test_bounds_command():
    code, out, _ = run_cli("bounds", "--pair", "chi3,chi3", "--k", "2", "--cmax", "100", "--alpha", "0.5")
    assert code == cli.EXIT_OK
    assert "trivial bound respected: True" in out
    assert "L(0.5, 100)" in out


def test_bounds_hands_each_alpha_over_exactly(monkeypatch):
    # an alpha below 5e-7 reaches the sweep as itself, not rounded to 0
    from dedsums import analysis

    seen = []
    real = analysis.bound_statistics

    def recording(ctx, c_max, alphas=()):
        seen.extend(alphas)
        return real(ctx, c_max, alphas)

    monkeypatch.setattr(analysis, "bound_statistics", recording)
    code, out, _ = run_cli(
        "bounds", "--pair", "chi3,chi3", "--k", "2", "--cmax", "90", "--alpha", "1e-7", "0.5"
    )
    assert code == cli.EXIT_OK
    assert seen == [Fraction(1e-7), Fraction(1, 2)]
    assert "L(1e-07, 90)" in out


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


def test_periodicity_suite_compares_the_shifted_value_with_a_cold_run(monkeypatch):
    # a wrong S-hat kept in the suite's own context fails the 1-periodicity line
    from dedsums import dedekind, verify
    from dedsums.modgroup import iter_G_pairs

    fresh = verify.context_for
    made = []

    def seeded(pair, k):
        ctx = fresh(pair, k)
        if not made:
            a, c = next(iter_G_pairs(ctx.n, 13))
            ctx.sum_memo[a % c, c, 1] = dedekind.sum_S(fresh(pair, k), a, c) + 1
        made.append(ctx)
        return ctx

    monkeypatch.setattr(verify, "context_for", seeded)
    ok, detail = verify.suite_periodicity(7, 0)
    assert not ok
    assert detail.startswith("S-hat not 1-periodic"), detail


def test_oracle_truncation_is_domain_error(monkeypatch):
    from dedsums import oracle

    def give_up(*args, **kwargs):
        raise oracle.TruncationError("tail estimate above tolerance at the term cap")

    with monkeypatch.context() as patched:
        patched.setattr(oracle, "shat_numeric", give_up)
        given_up = run_cli("sum", "--pair", "chi3,chi3", "--k", "2", "--a", "1", "--c", "9", "--oracle")
    # the tail bound's N^(k-2) overflows the floats before it meets the tolerance
    overflowed = run_cli("sum", "--pair", "chi3,chi4", "--k", "106", "--a", "1", "--c", "12", "--oracle")
    for code, out, err in (given_up, overflowed):
        assert code == cli.EXIT_DOMAIN
        assert out.startswith("S = ")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


SUM_ORACLE = ["sum", "--pair", "chi3,chi3", "--k", "2", "--a", "1", "--c", "9", "--oracle"]


@pytest.mark.parametrize("tol", ["1e300", "1", "1e-8"])
def test_loose_tol_does_not_loosen_the_series(tol):
    # --tol is only the pass threshold; the series is summed to min(tol, 1e-8) / 10
    code, out, _ = run_cli(*SUM_ORACLE, "--tol", tol)
    assert code == cli.EXIT_OK
    residual = float(out.splitlines()[-1].split("=")[1])
    assert residual < 1e-8


@pytest.mark.parametrize("suite", ["oracle", "reciprocity-numeric"])
def test_tight_tol_fails_the_numeric_suites(suite):
    # both suites pass a check only below min(--tol, 1e-8); rounding alone is above 1e-15
    code, out, _ = run_cli("verify", "--suite", suite, "--tol", "1e-15")
    assert code == cli.EXIT_CHECK_FAILED
    assert out.startswith(f"FAIL {suite}: ")


@pytest.mark.parametrize(
    "argv",
    [SUM_ORACLE + ["--tol", t] for t in ("nan", "inf", "0", "-1")]
    + [["verify", "--suite", "poly-space", "--tol", t] for t in ("nan", "inf", "0", "-1")]
    + [["bounds", "--pair", "chi3,chi3", "--k", "2", "--alpha", "1", a] for a in ("inf", "nan")]
    + [["table", "--j", j] for j in ("1", "0", "-3")]
    + [["table", "--jobs", n] for n in ("0", "-4")]
    + [["plotdata", "--pair", "chi3,chi3", "--k", "2", "--j", j] for j in ("1", "0", "-3")]
    + [["bounds", "--pair", "chi3,chi3", "--k", "2", "--cmax", c] for c in ("8", "0", "-5")]
    + [["sum", "--pair", "chi3,chi3", "--k", k, "--a", "1", "--c", "9"] for k in ("1", "0", "-2")]
    + [["contain", "--pair", "chi5,chi5", "--k", "0"]]
    # argparse's own errors: a missing option, a bad choice or int, no such command
    + [["sum", "--pair", "chi3,chi3", "--a", "1", "--c", "9"], ["table", "--format", "xml"]]
    + [["sum", "--pair", "chi3,chi3", "--k", "x", "--a", "1", "--c", "9"], ["nope"]]
    + [
        ["hpoly", "--pair", "chi5,chi5", "--k", "4", "--matrix", m]
        for m in (
            "[[1,1],[-1,1]]", "not json", "[[1,2],[3,4]]", "5", "[[true,0],[0,1]]", "[[1],[2]]",
            "[" * 100_000,  # nested past the JSON decoder's recursion limit
        )
    ],
)
def test_bad_numeric_option_is_usage_error(argv, monkeypatch):
    # rejected before any work: the sum, fit, suite or sweep would raise here
    from dedsums import analysis, dedekind

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the option check")

    monkeypatch.setattr(dedekind, "sum_S", no_work)
    monkeypatch.setattr(dedekind, "h_interpolate", no_work)
    monkeypatch.setattr(analysis, "bound_statistics", no_work)
    monkeypatch.setattr(analysis, "divisibility_tables", no_work)
    monkeypatch.setitem(cli.SUITES, "poly-space", no_work)
    code, out, err = run_cli(*argv)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("bad option: ")


# sha256 of the stdout of the commands whose output is exact; the suites that
# print a float (oracle, reciprocity-numeric, bounds) are left out, since
# their last digits follow the floating-point evaluation order
GOLDEN_STDOUT = [
    (["table", "--j", "4", "--format", "csv"], "38cb022623ce5e81a69a20ab4a3de1c697928ef08632edae0242b85b94ea5168"),
    (["table", "--j", "4", "--format", "json"], "b02c7c8ec841f496fe098b5c3763828376a69d75cd30e35cbf611ef7272aa5d7"),
    (["contain", "--pair", "chi3,chi4", "--k", "4"], "ae9a0e585dcced0d68d6e38a0adcd0265e5b4e54002008ef22d7f27322bc471d"),
    (
        ["hpoly", "--pair", "chi5,chi5", "--k", "4", "--matrix", "[[51,104],[25,51]]"],
        "6fa02ecce205a69d87f60cfd199f93eac4c1b02e985faf0078d64c5fdafcc60a",
    ),
    (["gens", "--n", "9"], "19530a7a785769dbff17358434ee0deb2339063c037133ac5625fcbc3d9eb6af"),
    (["gens", "--n", "25"], "52028da083136a71d0b8e593b270f1c8e282c6db1804dd416cfee61271fe9868"),
    (["verify", "--suite", "crossed-hom"], "c13ce9777018282929151b56d852c292f1303762aa9afd49ae56a861e0e96428"),
    (["verify", "--suite", "periodicity"], "5785e719470b0eb3eaa6648b778d9c94860e52e285aeffcff8997a8caf43f1f2"),
    (["verify", "--suite", "fricke-k2"], "2b42964fd9e938d1e221d01796569cb9ff8f5f49afbffaa5ee85ebd2dab420a2"),
    (["verify", "--suite", "poly-space"], "dc1bfaf6bec0e47c26cfe16355699435a425b282c040011eb887efc7c46a108c"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_STDOUT, ids=[" ".join(a) for a, _ in GOLDEN_STDOUT])
def test_exact_commands_match_golden_stdout(argv, digest):
    code, out, _ = run_cli(*argv)
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_reader_closing_the_pipe_early_exits_cleanly():
    # plotdata writes about 115 KB, more than a pipe holds, so it is still
    # writing when the reader stops after one line
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["plotdata", "--pair", "chi3,chi3", "--k", "2", "--j", "80"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "dedsums.cli", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"a_num,a_den,cusp,value,value_float\r\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == cli.EXIT_OK, err
    assert "Traceback" not in err


# -- every subcommand under fuzzed input ----------------------------------------

NAMED = st.sampled_from(["chi3", "chi4", "chi5", "chi7", "chi8a", "chi8b"])
TAG = st.one_of(
    NAMED,
    st.builds("{}:{}".format, st.integers(1, 20), st.integers(0, 8)),
    st.sampled_from(["chi6", "", " chi3", "5:x", "x:1", "-5:1", "5:-1", "0:0"]),
)
# containment walks Gamma_1(q1 q2) and fits its generators, so its levels stay small
SMALL_NAMED = st.sampled_from(["chi3", "chi4", "chi5", "5:2"])
SMALL_TAG = st.sampled_from(["chi3", "chi4", "chi5", "3:1", "4:1", "5:1", "5:2", "1:0", "chi6", "5:x"])
JUNK = ["", "x", "1.5", "nan", "1e3", "+3", "--", "-", "0x10"]


def pair_of(named, tag):
    return st.one_of(
        st.builds("{},{}".format, named, named),
        st.builds("{},{}".format, tag, tag),
        st.sampled_from(["chi3", "chi3,chi4,chi5", ","]),
    )


def ints(lo, hi):
    return st.one_of(st.integers(lo, hi).map(str), st.sampled_from(JUNK))


def sl2(a, c, negate):
    """A det-1 matrix with first column (a, c) when gcd(a, c) = 1, else one of det a."""
    if gcd(a, c) != 1:
        rows = [[a, 0], [c, 1]]
    elif c == 0:
        rows = [[a, 0], [0, a]]
    else:
        d = pow(a, -1, abs(c))
        rows = [[a, (a * d - 1) // c], [c, d]]
    sign = -1 if negate else 1
    return json.dumps([[sign * x for x in row] for row in rows])


K = st.integers(-2, 8).map(str)
FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1e-300", "-0.0", "1e-8"] + JUNK),
)
MATRIX = st.one_of(
    st.builds(sl2, st.integers(-100, 100), st.integers(-600, 600), st.booleans()),
    st.sampled_from(
        ["[[1,2],[3,4]]", "[[1.5,0],[0,1]]", "[[1,0]]", "[[true,0],[0,1]]", "[[1,0],[0,1]"] + JUNK
    ),
)
# multiples of the common levels, so that some sums and oracle runs do work
C = st.one_of(ints(-600, 600), st.sampled_from(["225", "420", "441", "504", "600"]))


def command(name, required, optional=None):
    """argv of one subcommand: every required option, any of the optional
    ones; True marks a switch and a list several values."""

    def to_argv(opts):
        argv = [name]
        for flag, value in opts.items():
            argv.append(f"--{flag}")
            if isinstance(value, list):
                argv.extend(value)
            elif value is not True:
                argv.append(value)
        return argv

    return st.fixed_dictionaries(required, optional=optional or {}).map(to_argv)


ARGV = st.one_of(
    command(
        "sum",
        {"pair": pair_of(NAMED, TAG), "k": K, "a": ints(-100, 100), "c": C},
        {"tilde": st.just(True), "oracle": st.just(True), "tol": FLOAT},
    ),
    command(
        "table",
        {"j": ints(-3, 3)},
        {
            "format": st.sampled_from(["pretty", "csv", "json", "xml"]),
            "jobs": st.sampled_from(["1", "0", "-2"] + JUNK),  # no worker processes
            "timings": st.just(True),
        },
    ),
    command("hpoly", {"pair": pair_of(NAMED, TAG), "k": K, "matrix": MATRIX}),
    command("gens", {"n": ints(-3, 40)}),
    command("contain", {"pair": pair_of(SMALL_NAMED, SMALL_TAG), "k": K}, {"polys": st.just(True)}),
    command(
        "bounds",
        {"pair": pair_of(NAMED, TAG), "k": K},
        {"cmax": ints(-10, 150), "alpha": st.lists(FLOAT, max_size=3)},
    ),
    # one suite at a time: "all" runs them together and is run on its own elsewhere
    command(
        "verify",
        {"suite": st.sampled_from(list(cli.SUITES) + ["nope"])},
        {"seed": ints(-5, 10**6), "tol": FLOAT},
    ),
    command("plotdata", {"pair": pair_of(NAMED, TAG), "k": K}, {"j": ints(-3, 3)}),
    st.lists(st.sampled_from(["sum", "gens", "--pair", "chi3,chi3", "--k", "2", "--n", "9", "-h"] + JUNK)),
)


@settings(max_examples=100, deadline=None)
@given(argv=ARGV)
def test_every_input_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # only the help leaves by exit
            assert exc.code == 0 and {"-h", "--help"} & set(argv), argv
            return
    assert code in range(5), argv
    if code == cli.EXIT_USAGE:
        assert out.getvalue() == "", argv
        assert len(err.getvalue().splitlines()) == 1, argv
