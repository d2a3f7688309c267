"""End-to-end checks of the command-line interface, run in process and once as `python -m hurwitzcf`."""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hurwitzcf import cli, zaremba
from hurwitzcf.cli import main
from hurwitzcf.gaussian import GaussianInt, format_gaussian_int
from hurwitzcf.spectrum import DigitExpansion, decode_base_b
from hurwitzcf.zaremba import emit_certificates, parse_certificates


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hcf_expand_records(capsys):
    code, out, err = run(capsys, "hcf", "expand", "10/27")
    assert code == 0 and err == ""
    assert out == (
        "value = 10 / 27\n"
        "head = 0\n"
        "digits = 3,-3,-3\n"
        "convergent.0 = 0\n"
        "convergent.1 = 1 / 3\n"
        "convergent.2 = 3 / 8\n"
        "convergent.3 = 10 / 27\n"
    )


def test_python_dash_m_runs_the_cli_with_its_exit_code(capsys):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", "hurwitzcf", *argv], env=env, capture_output=True, text=True)

    done = python_m("hcf", "expand", "10/27")
    assert (done.returncode, done.stdout, done.stderr) == run(capsys, "hcf", "expand", "10/27")
    assert done.returncode == 0
    refused = python_m("xi", "--base", "-2+i", "--tau", "3/2", "--lambda", "1", "--stages", "3")
    assert refused.returncode == 2 and refused.stdout == ""
    assert "growth ratio below 2" in refused.stderr


def test_hcf_expand_csv(capsys):
    code, out, _ = run(capsys, "hcf", "expand", "10/27", "--format", "csv")
    assert code == 0
    assert out == "n,digit,p,q\n0,0,0,1\n1,3,1,3\n2,-3,-3,-8\n3,-3,10,27\n"


def test_hcf_expand_complex(capsys):
    code, out, _ = run(capsys, "hcf", "expand", "5-6i / -7-24i")
    assert code == 0
    assert "digits = 2-3i,-1-2i,-3+i" in out


def test_hcf_expand_over_the_work_budget_exits_at_once(capsys, monkeypatch):
    big = 7**3000  # 8423 bits
    start = time.perf_counter()
    code, out, err = run(capsys, "hcf", "expand", f"{big}-{big + 1}i / {big + 2}")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "work budget" in err
    # the (-2+i)**4096 certificate fraction, 4756 bits, is admitted and expands to its digits
    base = GaussianInt(-2, 1)
    cert = zaremba.certify(base, 4096)
    fraction = f"{format_gaussian_int(cert.numerator)} / {format_gaussian_int(base**4096)}"
    code, out, _ = run(capsys, "hcf", "expand", fraction)
    lines = out.splitlines(keepends=True)
    assert code == 0 and lines[1:3] == ["head = 0\n", f"digits = {','.join(map(format_gaussian_int, cert.digits))}\n"]
    monkeypatch.setattr(cli, "_MAX_EXPAND_BITS", 4755)
    code, out, err = run(capsys, "hcf", "expand", fraction)
    assert code == 2 and out == "" and "a 4756-bit component exceeds the work budget of 4755 bits" in err


def test_cf_eval_and_round_trip(capsys):
    code, out, _ = run(capsys, "cf", "eval", "3,-3,-3")
    assert code == 0 and out == "10 / 27\n"
    code, digits_out, _ = run(capsys, "cf", "fold", "4,4,-5", "--unit")
    assert code == 0 and digits_out == "4,4,-4,-6,4,4\n"
    code, value_out, _ = run(capsys, "cf", "eval", digits_out.strip())
    assert code == 0 and value_out == "1538 / 6561\n"


def test_cf_fold_middle(capsys):
    code, out, _ = run(capsys, "cf", "fold", "3", "--middle", "5")
    assert code == 0 and out == "3,5,-3\n"


def test_cf_eval_undefined_suffix(capsys):
    code, out, err = run(capsys, "cf", "eval", "2,-i,-i")
    assert code == 2 and out == ""
    assert "suffix starting at digit 2 evaluates to zero" in err


def test_validity_check_exit_codes(capsys):
    code, out, _ = run(capsys, "validity", "check", "-1+2i,1+i")
    assert code == 1 and out == "Invalid\n"
    code, out, _ = run(capsys, "validity", "check", "2+2i,2+i,-3+4i")
    assert code == 0 and out == "Valid\n"
    code, out, _ = run(capsys, "validity", "check", "-2,1-2i")
    assert code == 0 and out == "ValidBoundaryOnly\n"


def test_prototype_explore(capsys, tmp_path):
    code, out, _ = run(capsys, "prototype", "explore")
    assert code == 0
    assert out.startswith("states = 13\nstate.0 = full\n")
    assert "state.12 = del[-1]" in out
    target = tmp_path / "table.csv"
    code, out, _ = run(capsys, "prototype", "explore", "--export", str(target))
    assert code == 0 and f"exported = {target}" in out
    text = target.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "state,digit,successor"
    assert len(text.splitlines()) == 629


def test_zaremba_certify(capsys, tmp_path):
    code, out, err = run(capsys, "zaremba", "certify", "--base", "-2+i", "--power", "4")
    assert code == 0 and err == ""
    assert out == (
        "[certificate]\n"
        "base = -2+i\n"
        "power = 4\n"
        "numerator = 5-6i\n"
        "digits = 2-3i, -1-2i, -3+i\n"
        "eta_sq = 18\n"
        "check.evaluation = pass\n"
        "check.coprime = pass\n"
        "check.fundamental_domain = pass\n"
        "check.digit_bound = pass\n"
        "check.canonical_expansion = pass\n"
        "check.validity = pass\n"
        "check.digit_window = pass\n"
    )
    target = tmp_path / "cert.txt"
    code, _, _ = run(capsys, "zaremba", "certify", "--base", "2", "--power", "9", "--emit", str(target))
    assert code == 0
    parsed = parse_certificates(target.read_text(encoding="utf-8"))
    assert len(parsed) == 1 and parsed[0].power == 9


def test_zaremba_certify_verifies_each_certificate_once(capsys, monkeypatch):
    # certify checks the Gauss-map pass it built the certificate from, and
    # verify_certificate runs a fresh pass; both go through _checks
    calls = []
    original = zaremba._checks
    monkeypatch.setattr(zaremba, "_checks", lambda cert, *rest: calls.append(cert) or original(cert, *rest))
    monkeypatch.setattr(zaremba, "_CACHE", {})
    code, out, err = run(capsys, "zaremba", "certify", "--base", "-2+i", "--power", "2048")
    assert code == 0 and err == ""
    # powers 2048, 1024, ..., 4: ten certificates, each verified when certify built it
    assert len(calls) == len(zaremba._CACHE) == 10
    # parsed certificates are re-verified, and their records read the same
    assert emit_certificates(parse_certificates(out)) == out
    assert len(calls) == 11


def test_zaremba_certify_over_the_work_budget_exits_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "zaremba", "certify", "--base", "-2+i", "--power", "100000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "work budget" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no integer string limit")
def test_zaremba_certify_prints_past_the_default_int_digit_limit(capsys):
    # 2**14300 has 4305 decimal digits, past Python's default limit of 4300
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "zaremba", "certify", "--base", "2", "--power", "14300")
        assert code == 0 and err == ""
        (parsed,) = parse_certificates(out)
    finally:
        sys.set_int_max_str_digits(saved)
    assert parsed == zaremba.certify(2, 14300)


def test_zaremba_certify_bad_requests(capsys):
    code, _, err = run(capsys, "zaremba", "certify", "--base", "1+i", "--power", "3")
    assert code == 2 and "unsupported base" in err
    code, _, err = run(capsys, "zaremba", "certify", "--base", "2", "--power", "0")
    assert code == 2 and "power must be a positive integer" in err


@pytest.mark.parametrize("padded, plain", [("05", "5"), ("-03-i", "-3-i"), ("-2+0001i", "-2+i")])
def test_zaremba_certify_reads_zero_padded_bases(capsys, padded, plain):
    # leading zeros count neither against the base's digit budget nor in int()
    expected = run(capsys, "zaremba", "certify", "--base", plain, "--power", "1")
    assert expected[0] == 0
    assert run(capsys, "zaremba", "certify", "--base", padded, "--power", "1") == expected


def test_zaremba_search(capsys):
    code, out, _ = run(capsys, "zaremba", "search", "--den", "1+i")
    assert code == 0
    assert out == "numerator = -i\nmax_digit_norm = 2\ndigits = -1+i\n"
    code, _, err = run(capsys, "zaremba", "search", "--den", "8192")
    assert code == 2 and "desk scale" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no integer string limit")
def test_zaremba_search_reads_zero_padded_denominators(capsys):
    # 5000 leading zeros pass Python's 4300-digit int() limit, which counts them
    expected = run(capsys, "zaremba", "search", "--den", "7+12i")
    assert expected[0] == 0
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for padded in ("007+012i", "0" * 5000 + "7+" + "0" * 5000 + "12i"):
            assert run(capsys, "zaremba", "search", "--den", padded) == expected
    finally:
        sys.set_int_max_str_digits(saved)


def test_xi_csv_schema_and_determinism(capsys):
    argv = ("xi", "--base", "-2+i", "--tau", "5/2", "--lambda", "1", "--stages", "4")
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "stage,v,digit_count,sandwich,exponent_lo,exponent_hi"
    assert len(lines) == 6
    cells = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in cells] == ["0", "1", "2", "3", "4"]
    assert [row[1] for row in cells] == ["244", "610", "1525", "3814", "9536"]
    assert [row[2] for row in cells] == ["1", "3", "7", "15", "31"]
    assert [row[3] for row in cells] == ["pass", "pass", "-", "-", "-"]
    # exponent brackets are dyadic rationals printed exactly
    assert all("/" in row[4] and "/" in row[5] for row in cells)
    code, again, _ = run(capsys, *argv)
    assert code == 0 and again == out


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--base", "-2+i", "--tau", "5/2", "--lambda", "1", "--stages", "8"),
         "591465d763817a64ef5968768c59fa4458494c3701164352c110ced450a2b810"),
        (("--base", "-3-i", "--tau", "2", "--lambda", "1", "--stages", "10", "--format", "records"),
         "98b79825a6dc536930cf4fd2a424c9c0b43cb2605527de2a4849b59ce291cb90"),
        (("--base", "-2+i", "--tau", "5/2", "--lambda", "1", "--stages", "10"),
         "5d5e80deb2e2e7bc94b28fb3f2af7627f888930faea5eeddc8b70617477baaac"),
    ],
    ids=["tau-5/2-csv", "tau-2-records", "tau-5/2-csv-10"],
)
def test_xi_output_is_pinned(capsys, argv, digest):
    # sha256 of the whole stdout, exponent brackets included, as the Fraction
    # formula for the brackets printed it.
    code, out, err = run(capsys, "xi", *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_xi_records_format(capsys):
    code, out, _ = run(
        capsys, "xi", "--base", "-2+i", "--tau", "2", "--lambda", "1",
        "--stages", "3", "--format", "records",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("stage.0 = v 64, digits 1, sandwich pass, exponent [")
    assert lines[3].startswith("stage.3 = v 512, digits 8, sandwich -, exponent [")


def test_xi_variant(capsys):
    argv = ("xi", "--base", "-2+i", "--tau", "5/2", "--lambda", "1", "--stages", "2")
    _, plain, _ = run(capsys, *argv)
    code, out, _ = run(capsys, *argv, "--variant", "w:01")
    assert code == 0
    lines = out.splitlines()
    # one bit per stage and no stage added
    assert len(lines) == 4
    v_plain = [int(line.split(",")[1]) for line in plain.splitlines()[1:]]
    v_variant = [int(line.split(",")[1]) for line in lines[1:]]
    # bit 1 raises the second increment by s = 2, the least s with 5**s >= 8
    assert v_variant == [v_plain[0], v_plain[1], v_plain[2] + 2]
    code, _, err = run(capsys, *argv[:-1], "3", "--variant", "w:01")
    assert code == 2 and "variant bit count must equal the stage count" in err
    code, _, err = run(capsys, *argv, "--variant", "w:2x")
    assert code == 2 and "variant must look like" in err


@pytest.mark.parametrize("base", ["-1+i", "-1-i", "-2+i", "-2-i", "-3+i", "-3-i"])
def test_xi_variant_passes_every_sandwich_on_every_small_base(capsys, base):
    for tau, word in (("5/2", "1011"), ("2", "110101")):
        code, out, _ = run(
            capsys, "xi", "--base", base, "--tau", tau, "--lambda", "1",
            "--stages", str(len(word)), "--variant", f"w:{word}",
        )
        assert code == 0
        sandwiches = [line.split(",")[3] for line in out.splitlines()[1:]]
        assert sandwiches == ["pass"] * (len(word) - 2) + ["-"] * 3


def test_xi_over_the_work_budget_exits_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "xi", "--base", "-2+i", "--tau", "1e3", "--lambda", "1", "--stages", "1",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "work budget" in err
    code, _, err = run(
        capsys, "xi", "--base", "-2+i", "--tau", "5/2", "--lambda", "1", "--stages", "100000",
    )
    assert code == 2 and "work budget" in err


def test_xi_schedule_work_is_bounded_before_any_power(capsys):
    for tau in ("1e200000", "1e400000"):
        start = time.perf_counter()
        code, out, err = run(capsys, "xi", "--base", "-2+i", "--tau", tau, "--lambda", "1", "--stages", "20")
        assert time.perf_counter() - start < 2.0
        assert code == 2 and out == ""
        assert "work budget" in err
    # at 3 stages the schedule's own parts pass, but base**v0 never would: refused before v0 is computed
    for tau in ("1e100000", "1e200000"):
        start = time.perf_counter()
        code, out, err = run(capsys, "xi", "--base", "-2+i", "--tau", tau, "--lambda", "1", "--stages", "3")
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert "base**v0 exceeds the work budget" in err
    # a tiny scale only moves the schedule's start: the search for it is logarithmic
    start = time.perf_counter()
    code, out, err = run(capsys, "xi", "--base", "-2+i", "--tau", "5/2", "--lambda", "1e-20000", "--stages", "3")
    assert time.perf_counter() - start < 2.0
    assert code == 0 and err == ""
    assert out == (
        "stage,v,digit_count,sandwich,exponent_lo,exponent_hi\n"
        "0,113,1,pass,46279475698040186573/18446744073709551616,46502340508178448147/18446744073709551616\n"
        "1,284,3,-,46149086173776477545/18446744073709551616,46237761256683602749/18446744073709551616\n"
        "2,711,7,-,46142704843986386425/18446744073709551616,23089062494810087417/9223372036854775808\n"
        "3,1779,15,-,46127189331578877775/18446744073709551616,23070672721873088005/9223372036854775808\n"
    )


def test_xi_fraction_parse_is_bounded_before_the_fraction(capsys):
    # Fraction("1e8000000") alone builds 10**8000000, about 10 s
    for option, text, budget in (("--tau", "1e8000000", 1048576), ("--lambda", "1e-8000000", 8388608)):
        values = {"--tau": "5/2", "--lambda": "1", option: text}
        start = time.perf_counter()
        code, out, err = run(capsys, "xi", "--base", "-2+i", "--tau", values["--tau"],
                             "--lambda", values["--lambda"], "--stages", "3")
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err == f"error: {option} has a numerator or denominator over the work budget of {budget} bits\n"
    # the schedule raises tau to a power of at least stages + 5, so a tau that
    # passes 1/8 of the budget at 3 stages is refused before the Fraction too,
    # and the message names that share
    start = time.perf_counter()
    code, out, err = run(capsys, "xi", "--base", "-2+i", "--tau", "1e2000000", "--lambda", "1", "--stages", "3")
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err == "error: --tau has a numerator or denominator over the work budget of 1048576 bits\n"
    # the ratio and the decimal form of one growth ratio print the same table
    outputs = [run(capsys, "xi", "--base", "-2+i", "--tau", tau, "--lambda", "1", "--stages", "3")
               for tau in ("5/2", "2.5", "25e-1")]
    assert outputs[0][0] == 0 and outputs[0] == outputs[1] == outputs[2]


def test_xi_rejects_shallow_growth(capsys):
    code, _, err = run(
        capsys, "xi", "--base", "-2+i", "--tau", "3/2", "--lambda", "1", "--stages", "3",
    )
    assert code == 2 and "growth ratio below 2" in err


def test_encode(capsys):
    code, out, _ = run(capsys, "encode", "5", "--base", "-2+i")
    assert code == 0 and out == "1310\n"
    code, out, _ = run(capsys, "encode", "0", "--base", "-2+i")
    assert code == 0 and out == "\n"
    code, out, _ = run(capsys, "encode", "-3+7i", "--base", "-3-i")
    assert code == 0 and out == "15716\n"
    code, _, err = run(capsys, "encode", "5", "--base", "2+i")
    assert code == 2 and "base must be -A+i or -A-i" in err


def test_encode_over_the_work_budget_exits_at_once(capsys):
    top = 1 << cli._MAX_ENCODE_BITS
    with zaremba.wide_int_strings():  # 4933 decimal digits, past the default limit
        admitted, oversized = f"{top - 1}-{top - 2}i", (f"{top}", f"1-{top}i")
    # a component of exactly the budget's bits is admitted and round-trips
    code, out, _ = run(capsys, "encode", admitted, "--base", "-9-i")
    digits = [int(d) for d in reversed(out.strip().split(","))]
    assert code == 0 and decode_base_b(DigitExpansion(GaussianInt(-9, -1), tuple(digits))) == GaussianInt(top - 1, 2 - top)
    for value in oversized:
        start = time.perf_counter()
        code, out, err = run(capsys, "encode", value, "--base", "-2+i")
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err == f"error: a {cli._MAX_ENCODE_BITS + 1}-bit component exceeds the work budget of 16384 bits\n"


@pytest.mark.parametrize("argv", [
    ("prototype", "explore", "--export", "{missing}/t.csv"),
    ("zaremba", "certify", "--base", "-2+i", "--power", "5", "--emit", "{missing}/x"),
], ids=["prototype-explore", "zaremba-certify"])
def test_an_unwritable_output_path_exits_2(capsys, tmp_path, argv):
    # exit 1 means Invalid or a failed check; a path that cannot be written is bad input
    missing = tmp_path / "missing"
    code, _, err = run(capsys, *(arg.format(missing=missing) for arg in argv))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# Decimal literals are built as strings: str(10**20000) trips the default int
# string limit before the CLI raises it.
_HUGE = "1" + "0" * 20000

# Every subcommand on oversized input, with the exit code it must end with.
_BUDGET_AUDIT = {
    "hcf-expand-huge-fraction": (("hcf", "expand", f"{_HUGE}/3"), 2),
    "encode-huge-value": (("encode", _HUGE, "--base", "-2+i"), 2),
    "search-huge-den": (("zaremba", "search", "--den", _HUGE), 2),
    "certify-huge-base": (("zaremba", "certify", "--base", _HUGE, "--power", "4"), 2),
    "certify-huge-power": (("zaremba", "certify", "--base", "-2+i", "--power", "1" + "0" * 31), 2),
    "xi-many-stages": (("xi", "--base", "-2+i", "--tau", "5/2", "--lambda", "1", "--stages", "100000"), 2),
    "cf-eval-long-word": (("cf", "eval", ",".join(["2"] * 30000)), 0),
    "cf-fold-long-word": (("cf", "fold", ",".join(["2"] * 60000), "--unit"), 0),
    "cf-fold-huge-middle": (("cf", "fold", "2,3", "--middle", _HUGE), 0),
    "validity-long-word": (("validity", "check", ",".join(["2"] * 60000)), 0),
    "validity-huge-digit": (("validity", "check", f"1+i,{_HUGE}+{_HUGE}i"), 1),
    "prototype-explore": (("prototype", "explore"), 0),
}


@pytest.mark.parametrize("argv, expected", _BUDGET_AUDIT.values(), ids=_BUDGET_AUDIT.keys())
def test_every_subcommand_ends_fast_on_oversized_input(capsys, argv, expected):
    start = time.perf_counter()
    code, _, _ = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert code == expected


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no integer string limit")
@pytest.mark.parametrize("row", ["cf-eval-long-word", "cf-fold-huge-middle", "validity-huge-digit",
                                 "encode-huge-value", "hcf-expand-huge-fraction"])
def test_commands_leave_the_int_digit_limit_as_they_found_it(capsys, row):
    # only the commands whose input or output needs it raise the limit, and
    # only while they run: the first three rows need it to end as the audit
    # pins, and an error, raised inside a command or not, restores it too
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert main(["hcf", "expand", "10/27"]) == 0
        assert sys.get_int_max_str_digits() == 4300
        argv, expected = _BUDGET_AUDIT[row]
        assert run(capsys, *argv)[0] == expected
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(saved)
    capsys.readouterr()


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no integer string limit")
@pytest.mark.parametrize("row, message", [
    ("hcf-expand-huge-fraction", "a component exceeds the work budget of 8192 bits"),
    ("search-huge-den", "oracle restricted to desk scale"),
    ("certify-huge-base", "unsupported base: a 20001-digit component"),
], ids=["hcf-expand-huge-fraction", "search-huge-den", "certify-huge-base"])
def test_huge_operands_get_the_commands_own_message(capsys, row, message):
    # these commands leave the int string limit alone, so the operand's digits
    # are counted before int() would refuse it with Python's own message
    argv, expected = _BUDGET_AUDIT[row]
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2.0
    finally:
        sys.set_int_max_str_digits(saved)
    assert (code, out, err) == (expected, "", f"error: {message}\n")


def test_dash_operands_survive_option_scanning(capsys):
    code, out, _ = run(capsys, "cf", "eval", "-2,-2")
    assert code == 0 and out == "-2 / 5\n"
    code, out, _ = run(capsys, "hcf", "expand", "-9-2i / 17")
    assert code == 0 and "head = " in out
