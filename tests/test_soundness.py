"""Regression tests for verdicts, searches and caps that once failed or crashed."""

import json
import time

import pytest

import sturmlex.words
from sturmlex.cli import main
from sturmlex.extremal import allowed_pair_check, finite_episturmian_test
from sturmlex.generators import characteristic, fibonacci_slope, mechanical_lower
from sturmlex.surds import QuadraticSurd
from sturmlex.words import FiniteWord, prepend


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def char_pair(alpha):
    c = characteristic(alpha)
    return prepend(FiniteWord.from_str("0"), c), prepend(FiniteWord.from_str("1"), c)


class TestStrictSideTies:
    """(0c, 1c) is an allowed pair; a shift equal to 1c through depth L is undecided, not a violation."""

    @pytest.mark.parametrize(
        "alpha,K,L",
        [
            (fibonacci_slope(), 2000, 100),
            (fibonacci_slope(), 5000, 400),
            (QuadraticSurd(-1, 1, 2, 1), 200, 400),
            (QuadraticSurd(-1, 1, 3, 2), 200, 400),
        ],
    )
    def test_tie_is_undecided(self, alpha, K, L):
        v = allowed_pair_check(*char_pair(alpha), K, L)
        assert v.holds and v.undecided > 0 and v.witness is None

    def test_cli(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "extremal", "allowed-pair", "--r", "prepend:0:fib",
                           "--s", "prepend:1:fib", "--K", "2000", "--L", "100")
        assert code == 0 and json.loads(out)["status"] == "holds"

    def test_decided_violation_still_fails(self):
        s, r = char_pair(fibonacci_slope())
        v = allowed_pair_check(r, s, 100, 200)
        assert not v.holds and v.witness["bound"] == "upper" and v.witness["shift"] == 0


class TestFiniteEpisturmianDeepSearch:
    BODY = "ab" * 1200

    def test_library(self):
        ok, cert = finite_episturmian_test(FiniteWord.from_str(self.BODY))
        assert ok and len(cert) == len(self.BODY) - 1

    def test_cli(self, capsys):
        code, out, err = run(capsys, "--format", "json", "extremal", "finite-epi", "--body", self.BODY)
        obj = json.loads(out)
        assert code == 0 and obj["episturmian"] is True and obj["certificate"] is not None and err == ""


class TestRationalSlopeCap:
    def test_period_longer_than_cap(self, monkeypatch):
        monkeypatch.setattr(sturmlex.words, "MAX_PREFIX", 1000)
        with pytest.raises(ValueError, match=r"^period 300000 of slope 1/300000 exceeds cap 1000 \(STURMLEX_MAX_LEN\)$"):
            mechanical_lower(QuadraticSurd(1, 0, 0, 300000), QuadraticSurd(0))
        assert len(mechanical_lower(QuadraticSurd(1, 0, 0, 1000), QuadraticSurd(0)).period) == 1000

    def test_cli_usage_error(self, monkeypatch, capsys):
        monkeypatch.setattr(sturmlex.words, "MAX_PREFIX", 1000)
        code, out, err = run(capsys, "generate", "mechanical", "--alpha", "1/300000", "--len", "5")
        assert code == 2 and out == "" and "exceeds cap 1000" in err

    def test_cli_names_the_period_not_the_request(self, monkeypatch, capsys):
        monkeypatch.setattr(sturmlex.words, "MAX_PREFIX", 10**6)
        code, out, err = run(capsys, "generate", "mechanical", "--alpha", "1/1000001", "--rho", "0", "--len", "3")
        assert code == 2 and out == ""
        assert "error: period 1000001 of slope 1/1000001 exceeds cap 1000000 (STURMLEX_MAX_LEN)" in err


class TestSurdRadicandCheckedOnce:
    def test_arithmetic_skips_the_check(self):
        x = QuadraticSurd(0, 1, 10**12 + 1, 1)
        t0 = time.perf_counter()
        y = x + 1 + 1 + 1
        assert time.perf_counter() - t0 < 0.05
        assert (y.p, y.q, y.d, y.r) == (3, 1, 10**12 + 1, 1)

    def test_user_radicand_still_checked(self):
        with pytest.raises(ValueError, match="radicand 12 is not square-free"):
            QuadraticSurd(0, 1, 12, 1)
