"""CLI contract: subcommands, exit codes, deterministic machine output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sturmlex.words
from sturmlex.cli import main
from sturmlex.commands import word_from_spec
from sturmlex.words import UltimatelyPeriodicWord, word_to_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_mechanical_example(self, capsys):
        code, out, _ = run(
            capsys, "generate", "mechanical", "--alpha", "(3-1*sqrt(5))/2", "--rho", "same",
            "--len", "8",
        )
        assert code == 0 and out.strip() == "01001010"

    def test_epistandard(self, capsys):
        code, out, _ = run(capsys, "generate", "epistandard", "--directive", "abc*", "--len", "16")
        assert code == 0 and out.strip() == "abacabaabacababa"

    def test_thue_morse_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "generate", "thue-morse", "--len", "8")
        assert code == 0
        assert json.loads(out)["word"] == "01101001"

    def test_skew_and_periodic_balanced(self, capsys):
        code, out, _ = run(capsys, "generate", "skew", "--ell", "2", "--len", "6")
        assert code == 0 and out.strip() == "aabaaa"
        code, out, _ = run(
            capsys, "generate", "periodic-balanced", "--v", "ab", "--x", "a", "--y", "b",
            "--len", "10",
        )
        assert code == 0 and out.strip() == "abaababaab"

    def test_morphic(self, capsys):
        code, out, _ = run(
            capsys, "generate", "morphic", "--morphism", "a>ab,b>a", "--word", "epistandard:ab*",
            "--len", "8",
        )
        assert code == 0 and out.strip() == "abaabab a".replace(" ", "")

    @pytest.mark.parametrize("leaf, spec", [
        (["mechanical", "--alpha", "(3-1*sqrt(5))/2"], "mechanical:(3-1*sqrt(5))/2:same"),
        (["mechanical", "--alpha", "(3-1*sqrt(5))/2", "--rho", "same "], "mechanical:(3-1*sqrt(5))/2:same"),
        (["mechanical", "--alpha", "2/5", "--rho", " SAME", "--upper"], "mechanical-upper:2/5:same"),
        (["mechanical", "--upper", "--alpha", "(3-1*sqrt(5))/2", "--rho", "1/3"],
         "mechanical-upper:(3-1*sqrt(5))/2:1/3"),
        (["mechanical", "--alpha", "(3-1*sqrt(5))/2", "--rho", "-1/3"], "mechanical:(3-1*sqrt(5))/2:-1/3"),
        (["epistandard", "--directive", "abc*"], "epistandard:abc*"),
        (["epistandard", "--directive", " ab|cd "], "epistandard:ab|cd"),
        (["morphic", "--morphism", "a>ab,b>a", "--word", "fib"], "morphic:a>ab,b>a:fib"),
        (["thue-morse"], "thue-morse"),
    ])
    def test_leaf_is_its_spec_form(self, capsys, leaf, spec):
        code, out, err = run(capsys, "--format", "json", "generate", *leaf, "--len", "40")
        w = word_from_spec(spec)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"recipe": w.recipe, "length": 40, "word": w.prefix(40).as_str()}


class TestAnalyze:
    def test_complexity(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "analyze", "complexity", "--word", "tribonacci",
            "--k-max", "3", "--prefix", "500",
        )
        assert code == 0
        assert json.loads(out)["table"] == [
            {"k": 1, "p": 3}, {"k": 2, "p": 5}, {"k": 3, "p": 7},
        ]

    def test_balance_exit_codes(self, capsys):
        assert run(capsys, "analyze", "balance", "--word", "fib")[0] == 0
        assert run(capsys, "analyze", "balance", "--word", "periodic:0011")[0] == 1

    def test_special(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "special", "--word", "fib", "--n", "2", "--side", "left",
            "--prefix", "1000",
        )
        assert code == 0 and len(out.split()) == 1

    def test_block_condition(self, capsys):
        assert run(capsys, "analyze", "block-condition", "--word", "periodic:aabab")[0] == 0

    def test_period(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "analyze", "period", "--word",
                           "up:b|a", "--prefix", "60")
        obj = json.loads(out)
        assert obj["certificate"] == {"preperiod": "b", "period": "a"}

    def test_period_of_an_aperiodic_prefix(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "analyze", "period", "--word", "fib", "--prefix", "10")
        assert code == 0
        assert json.loads(out) == {"word": "fib", "prefix": 10, "smallest_period": 5, "certificate": None}


class TestExtremal:
    def test_characteristic_fib(self, capsys):
        code, out, _ = run(capsys, "extremal", "characteristic", "--word", "fib",
                           "--K", "200", "--L", "400")
        assert code == 0 and out.startswith("holds")

    def test_characteristic_control_fails(self, capsys):
        code, _, _ = run(capsys, "extremal", "characteristic", "--word", "thue-morse",
                         "--K", "50", "--L", "100")
        assert code == 1

    def test_min_max(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "extremal", "min-max", "--word",
                           "periodic:abaab", "--k", "5")
        obj = json.loads(out)
        assert (obj["min"], obj["max"]) == ("aabab", "babaa")

    def test_epistandard_ineq(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "extremal", "epistandard-ineq",
                           "--word", "tribonacci", "--K", "100", "--L", "300")
        obj = json.loads(out)
        assert code == 0 and obj["strict"] is True and len(obj["pairs"]) == 6

    def test_fine(self, capsys):
        assert run(capsys, "extremal", "fine", "--word", "fib", "--K", "100")[0] == 0
        assert run(capsys, "extremal", "fine", "--word",
                   "morphic:c>c,a>ca,b>cb:epistandard:ab*", "--K", "60")[0] == 1

    def test_finite_epi(self, capsys):
        assert run(capsys, "extremal", "finite-epi", "--body", "aabab")[0] == 0
        assert run(capsys, "extremal", "finite-epi", "--body", "0011")[0] == 1

    def test_finite_epi_of_the_empty_body(self, capsys):
        code, out, err = run(capsys, "--format", "json", "extremal", "finite-epi", "--body", "")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"word": "", "episturmian": True, "certificate": ""}

    def test_gamma(self, capsys):
        code, _, _ = run(capsys, "extremal", "gamma", "--word",
                         "prepend:1:characteristic:(-1+1*sqrt(5))/2", "--K", "100", "--L", "200")
        assert code == 0

    def test_allowed_pair_and_sigma(self, capsys):
        assert run(capsys, "extremal", "allowed-pair", "--r", "prepend:0:fib",
                   "--s", "prepend:1:fib", "--K", "100", "--L", "200")[0] == 0
        assert run(capsys, "extremal", "sigma", "--word", "prepend:1:fib",
                   "--x", "prepend:0:fib", "--y", "prepend:1:fib",
                   "--K", "100", "--L", "200")[0] == 0

    def test_phi_approx(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "extremal", "phi-approx",
                           "--word", "prepend:0:periodic:10", "--P", "3",
                           "--K", "60", "--L", "120")
        obj = json.loads(out)
        assert code == 0 and obj["prefix"].startswith("101010")

    def test_phi_approx_without_a_candidate(self, capsys):
        code, out, err = run(capsys, "extremal", "phi-approx", "--word", "periodic:0")
        assert (code, out, err) == (1, "no candidate found  [candidate at bounds (P=4, K=100, L=200)]\n", "")


def digit_file(tmp_path):
    path = tmp_path / "digits.txt"
    path.write_text("2\n0101010101010101010101\n", encoding="utf-8")
    return str(path)


class TestAnalyzeFiniteWord:
    """A finite word is read whole: its JSON prefix is its length, whatever --prefix says."""

    @pytest.mark.parametrize("leaf, extra", [
        ("complexity", ("--k-max", "3")), ("balance", ()), ("block-condition", ()),
    ])
    @pytest.mark.parametrize("view", ["file:{}", "shift:2:file:{}", "prepend:0:file:{}"])
    def test_prefix_is_the_length_read(self, capsys, tmp_path, leaf, extra, view):
        path = tmp_path / "w.txt"
        path.write_text("a,b\nabaababaabaab\n", encoding="utf-8")
        spec = view.format(path)
        length = len(word_from_spec(spec))
        for prefix in ((), ("--prefix", "300"), ("--prefix", "5")):
            code, out, err = run(capsys, "--format", "json", "analyze", leaf, "--word", spec, *extra, *prefix)
            assert (code, err) == (0, "") and json.loads(out)["prefix"] == length

    def test_an_infinite_word_reports_its_prefix(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "analyze", "block-condition", "--word", "fib")
        assert (code, json.loads(out)["prefix"]) == (0, 300)
        code, out, _ = run(capsys, "--format", "json", "analyze", "balance", "--word", "fib", "--prefix", "77")
        assert (code, json.loads(out)["prefix"]) == (0, 77)

    def test_local_balance_default_material(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "analyze", "local-balance", "--word", "fib")
        assert (code, json.loads(out)["detail"]["material"]) == (0, 2000)

    @pytest.mark.parametrize("leaf, extra", [
        ("complexity", ("--k-max", "3")), ("balance", ()), ("block-condition", ()),
        ("special", ("--n", "1")), ("local-balance", ("--n-max", "1")), ("period", ()),
    ])
    @pytest.mark.parametrize("view", ["file:{}", "shift:2:file:{}"])
    def test_a_negative_prefix_is_a_usage_error(self, capsys, tmp_path, leaf, extra, view):
        # as over an infinite word: a finite word is read whole, but only for a prefix length >= 0
        path = tmp_path / "w.txt"
        path.write_text("0,1\n0100101001001\n", encoding="utf-8")
        code, out, err = run(capsys, "analyze", leaf, "--word", view.format(path), *extra, "--prefix", "-1")
        assert (code, out, err) == (2, "", "error: prefix length must be non-negative, got -1\n")


class TestDigitSource:
    """frac-parts, cover and classify read exactly one of --xi, --xi-digits and --word."""

    LEAVES = [("frac-parts", "--N", "3", "--L", "8"), ("cover", "--N", "5", "--L", "8"), ("classify", "--prefix", "16")]

    @pytest.mark.parametrize("leaf", LEAVES)
    @pytest.mark.parametrize("sources", [("--xi", "--word"), ("--xi-digits", "--xi"), ("--word", "--xi-digits"),
                                         ("--xi", "--xi-digits", "--word")])
    def test_two_sources_are_a_usage_error(self, capsys, tmp_path, leaf, sources):
        value = {"--xi": "1/3", "--xi-digits": digit_file(tmp_path), "--word": "fib"}
        argv = [arg for flag in sources for arg in (flag, value[flag])]
        with pytest.raises(SystemExit) as exc:
            main(["modone", *leaf, *argv])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert f"argument {sources[1]}: not allowed with argument {sources[0]}" in err

    @pytest.mark.parametrize("leaf", LEAVES)
    def test_a_missing_source_is_a_usage_error(self, capsys, leaf):
        with pytest.raises(SystemExit) as exc:
            main(["modone", *leaf])
        assert exc.value.code == 2
        assert "error: one of the arguments --xi --xi-digits --word is required" in capsys.readouterr().err

    def test_each_source_alone(self, capsys, tmp_path):
        cover = ("modone", "cover", "--N", "5", "--L", "8")
        assert run(capsys, *cover, "--xi", "1/3") == (
            0, "covering length = 43/128 ~= 0.335937500000\ninterval [85/256, 171/256]\n", "")
        assert run(capsys, *cover, "--word", "fib") == (
            0, "covering length = 31/64 ~= 0.484375000000\ninterval [41/256, 165/256]\n", "")
        # the digits of 1/3 in base 2, from a file
        assert run(capsys, *cover, "--xi-digits", digit_file(tmp_path)) == run(capsys, *cover, "--xi", "1/3")

    def test_an_empty_xi_is_the_chosen_source(self, capsys):
        assert run(capsys, "modone", "cover", "--xi", "") == (2, "", "error: Invalid literal for Fraction: ''\n")


class TestModone:
    def test_digits(self, capsys):
        code, out, _ = run(capsys, "modone", "digits", "--xi", "1/3", "--base", "2", "--n", "4")
        assert code == 0 and out.strip() == "0101"

    def test_cover_with_digit_file(self, capsys, tmp_path):
        fib = word_from_spec("fib")
        path = tmp_path / "fib.txt"
        path.write_text("2\n" + fib.prefix(456).as_str() + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "--format", "json", "modone", "cover", "--xi-digits",
                           str(path), "--base", "2", "--N", "200", "--L", "256")
        assert code == 0
        obj = json.loads(out)
        num, den = obj["covering_length"].split("/")
        assert abs(int(num) / int(den) - 0.5) < 1e-9
        assert set(obj["interval"]) == {"lo", "hi"}

    def test_cover_determinism(self, capsys):
        args = ("--format", "json", "modone", "cover", "--word", "fib", "--N", "80", "--L", "96")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_frac_parts_csv(self, capsys):
        code, out, _ = run(capsys, "modone", "frac-parts", "--xi", "1/3", "--N", "2",
                           "--L", "8", "--csv")
        lines = out.strip().split("\n")
        assert lines[0] == "n,lo,hi" and len(lines) == 3

    def test_classify(self, capsys):
        code, out, _ = run(capsys, "modone", "classify", "--word", "fib", "--prefix", "200")
        assert code == 0 and out.split("\n")[0] == "consistent-with-sturmian"
        code, out, _ = run(capsys, "modone", "classify", "--xi", "1/3", "--prefix", "60")
        assert code == 0 and out.split("\n")[0] == "periodic-balanced"

    @pytest.mark.parametrize("word, prefix, expected", [
        # a rational intercept: no characteristic shift, and the interval refinement cannot decide
        ("mechanical:(3-1*sqrt(5))/2:1/3", "60", {
            "values": [0, 1], "low_digit": 0, "periodic_certificate": None,
            "classification": "consistent-with-sturmian", "interval_refinement": "undetermined-at-bounds",
            "characteristic_shift": None}),
        # one value only
        ("periodic:1", "10", {
            "values": [1], "low_digit": 1, "periodic_certificate": {"preperiod": "", "period": "0"},
            "classification": "periodic-balanced", "interval_refinement": "not-applicable",
            "characteristic_shift": None}),
    ])
    def test_classify_report(self, capsys, word, prefix, expected):
        code, out, _ = run(capsys, "--format", "json", "modone", "classify", "--word", word, "--prefix", prefix)
        obj = json.loads(out)
        assert code == 0 and {key: obj[key] for key in expected} == expected

    def test_self_sturmian(self, capsys):
        code, _, _ = run(capsys, "modone", "self-sturmian", "--word",
                         "prepend:1:characteristic:(-1+1*sqrt(5))/2", "--K", "100", "--L", "200")
        assert code == 0

    def test_gamma_tilde(self, capsys):
        assert run(capsys, "modone", "gamma-tilde", "--x", "2/3")[0] == 0
        assert run(capsys, "modone", "gamma-tilde", "--x", "1/3")[0] == 1

    def test_veerman(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "modone", "veerman", "--alpha",
                           "(3-1*sqrt(5))/2", "--L", "64")
        assert code == 0 and json.loads(out)["difference"] == "1/2"

    def test_gamma_tilde_reads_unreduced_and_even_denominators(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "modone", "gamma-tilde", "--x", "4/6")
        assert code == 0 and json.loads(out) == {"x": "2/3", "member": True, "orbit_size": 2}
        code, out, _ = run(capsys, "--format", "json", "modone", "gamma-tilde", "--x", "3/4")
        assert code == 1 and json.loads(out) == {"x": "3/4", "member": False, "orbit_size": 3}

    @pytest.mark.parametrize("argv, digits", [
        (("digits", "--xi", "1/3", "--n"), 0),
        (("frac-parts", "--xi", "1/3", "--L", "2", "--N"), 2),
        (("cover", "--xi", "1/3", "--L", "2", "--N"), 2),
        (("classify", "--xi", "1/3", "--prefix"), 0),
    ])
    def test_rational_digit_requests_obey_the_cap(self, capsys, monkeypatch, argv, digits):
        # `digits` extra digits beyond the count the command is given
        monkeypatch.setattr(sturmlex.words, "MAX_PREFIX", 100)
        code, _, err = run(capsys, "modone", *argv, str(100 - digits))
        assert code in (0, 1) and err == ""
        code, out, err = run(capsys, "modone", *argv, str(101 - digits))
        assert (code, out) == (2, "")
        assert err == "error: digit request 101 exceeds cap 100 (STURMLEX_MAX_LEN)\n"


@pytest.fixture
def digit_limit():
    """The interpreter's default limit on int/str conversions (4300 digits) where it has one, restored after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("argv", [
    ["veerman", "--alpha", "(3-1*sqrt(5))/2", "--L", "15000"],
    ["frac-parts", "--word", "fib", "--N", "1", "--L", "15000"],
    ["cover", "--word", "fib", "--N", "2", "--L", "15000"],
])
def test_exact_values_print_past_the_interpreter_digit_limit(capsys, digit_limit, argv):
    code, out, err = run(capsys, "--format", "json", "modone", *argv)
    assert (code, err) == (0, "")
    if argv[0] == "veerman":
        assert json.loads(out)["difference"] == "1/2"


def test_inputs_read_past_the_interpreter_digit_limit(capsys, digit_limit):
    code, out, err = run(capsys, "modone", "digits", "--xi", "1/1" + "0" * 5000, "--n", "8")
    assert (code, out, err) == (0, "00000000\n", "")


class TestOracle:
    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "oracle", "enumerate", "--n", "4")
        obj = json.loads(out)
        assert obj["count"] == 14 and "0110" in obj["words"] and "0011" not in obj["words"]

    def test_corpus_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "corpus.txt"
        code, _, _ = run(capsys, "oracle", "corpus", "--n-max", "4", "--budget", "200",
                         "--out", str(out_path))
        assert code == 0
        text = out_path.read_text(encoding="utf-8")
        assert text.startswith("# corpus:")

    def test_corpus_lists_each_letter_string_once(self, capsys):
        # `a` is a factor of the 2-, 3- and 4-letter roster words alike: one entry
        code, out, _ = run(capsys, "oracle", "corpus", "--n-max", "1", "--budget", "20")
        lines = out.splitlines()
        assert code == 0 and lines[1] == "# n_max=1 prefix_budget=20 count=4"
        assert lines[3:] == ["a", "b", "c", "d"]
        code, out, _ = run(capsys, "oracle", "corpus", "--n-max", "4", "--budget", "200")
        header, body = out.splitlines()[1], out.splitlines()[3:]
        assert code == 0 and len(set(body)) == len(body)
        assert header.endswith(f" count={len(set(body))}")

    def test_diff(self, capsys):
        code, out, _ = run(capsys, "oracle", "diff", "--trials", "100", "--seed", "3")
        assert code == 0 and "0 mismatches" in out


class TestErrors:
    def test_bad_surd_is_usage_error(self, capsys):
        code, _, err = run(capsys, "generate", "mechanical", "--alpha", "nonsense")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("alpha, rho", [("1:3", "same"), ("1/3", "1:3")])
    def test_colon_in_a_mechanical_option_is_a_usage_error(self, capsys, alpha, rho):
        code, out, err = run(capsys, "generate", "mechanical", "--alpha", alpha, "--rho", rho)
        assert (code, out, err) == (2, "", "error: mechanical: expected mechanical:ALPHA:RHO\n")

    def test_bad_word_spec(self, capsys):
        code, _, err = run(capsys, "analyze", "balance", "--word", "unknown:thing")
        assert code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate"])
        assert exc.value.code == 2

    def test_digit_text_over_three_letters(self, capsys):
        # digit text names its letters 0..max digit, not a..h
        code, out, err = run(capsys, "extremal", "min-max", "--word", "periodic:012", "--k", "2")
        assert (code, out, err) == (0, "min: 01\nmax: 20\n", "")
        code, out, err = run(capsys, "extremal", "min-max", "--word", "up:0|2", "--k", "1")
        assert (code, out, err) == (0, "min: 0\nmax: 2\n", "")
        code, out, _ = run(capsys, "extremal", "min-max", "--word", "periodic:abc", "--k", "2")
        assert (code, out) == (0, "min: ab\nmax: ca\n")

    def test_word_file_round_trip(self, capsys, tmp_path):
        w = word_from_spec("up:b|ab")
        assert isinstance(w, UltimatelyPeriodicWord)
        path = tmp_path / "word.txt"
        path.write_text(word_to_text(w), encoding="utf-8")
        again = word_from_spec(f"file:{path}")
        assert again.preperiod == w.preperiod and again.period == w.period


SRC = str(Path(__file__).resolve().parents[1] / "src")


def child(argv, cap):
    """Exit code, stdout and stderr of ``python argv`` with STURMLEX_MAX_LEN=cap."""
    env = dict(os.environ, STURMLEX_MAX_LEN=cap)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60)
    return out.returncode, out.stdout, out.stderr


GENERATE = ["-m", "sturmlex.cli", "generate", "thue-morse", "--len", "5"]


@pytest.mark.parametrize("cap", ["abc", "-1", "1e6", ""])
def test_malformed_max_len_is_a_usage_error(cap):
    message = f"STURMLEX_MAX_LEN must be a non-negative integer, got {cap!r}"
    assert child(GENERATE, cap) == (2, "", f"error: {message}\n")
    # the full parser loads every group's leaves, and with them words
    assert child(["-m", "sturmlex.cli", "--help"], cap) == (2, "", f"error: {message}\n")
    # importing is not running a command: the error stays an exception
    for module in ("sturmlex.words", "sturmlex.commands"):
        code, out, err = child(["-c", f"import {module}"], cap)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == f"ValueError: {message}"


@pytest.mark.parametrize("cap, expected", [
    (" 5 ", (0, "01101\n", "")),
    ("+1_0", (0, "01101\n", "")),
    ("4", (2, "", "error: prefix request 5 exceeds cap 4 (STURMLEX_MAX_LEN)\n")),
])
def test_every_int_text_is_a_cap(cap, expected):
    assert child(GENERATE, cap) == expected


@pytest.mark.parametrize("alpha, cap, period", [("1/3", "2", "3"), ("2", "0", "1")])
def test_a_rational_slope_names_its_period_over_the_cap(alpha, cap, period):
    argv = ["-m", "sturmlex.cli", "generate", "mechanical", "--alpha", alpha, "--len", "1"]
    assert child(argv, cap) == (2, "", f"error: period {period} of slope {alpha} exceeds cap {cap} (STURMLEX_MAX_LEN)\n")


def test_the_prefix_cap_bounds_the_doubling_orbit():
    # the orbit of 1/7 is 1/7, 2/7, 4/7: cap + 1 points pass, cap + 2 points do not
    gamma_tilde = ["-m", "sturmlex.cli", "--format", "json", "modone", "gamma-tilde", "--x", "1/7"]
    assert child(gamma_tilde, "2")[:2] == (1, '{"x": "1/7", "member": false, "orbit_size": 3}\n')
    assert child(gamma_tilde, "1") == (2, "", "error: orbit point 2 exceeds cap 1 (STURMLEX_MAX_LEN)\n")
