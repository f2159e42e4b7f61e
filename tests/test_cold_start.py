"""Start-up: each command loads only the layers it runs, with the same output.

`import sturmlex` loads no submodule; the package names resolve on first
access to the very objects the submodules define.  A command builds the leaf
parsers of its own group only, and its help and usage errors are the bytes
the full parser gives.
"""

import contextlib
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sturmlex
from sturmlex import cli

SRC = Path(__file__).resolve().parent.parent / "src"

# every public name of the package, by the submodule that defines it, as
# the package bound them when it imported all six submodules eagerly
NAMESPACE = {
    "words": [
        "Alphabet", "BINARY", "BINARY_AB", "ComparisonOutcome", "FiniteWord", "InfiniteWord",
        "LexOrder", "Relation", "UltimatelyPeriodicWord", "balance_violation", "block_condition",
        "classify_eventually_periodic", "complement", "complexity", "detect_period", "factors",
        "is_balanced", "is_palindrome", "lex_compare", "prepend", "reversal", "shift",
        "special_factors", "word_from_text", "word_to_text",
    ],
    "surds": ["QuadraticSurd", "parse_surd", "surd_compare", "surd_floor"],
    "generators": [
        "DirectiveWord", "Morphism", "characteristic", "epistandard", "fibonacci_slope",
        "iterated_pal", "kbonacci", "mechanical_lower", "mechanical_upper", "pal_closure",
        "periodic_balanced", "skew_word", "thue_morse",
    ],
    "extremal": [
        "AcceptablePair", "BoundedVerdict", "acceptable_pairs", "allowed_pair_check",
        "characteristic_check", "check_epistandard_ineq", "check_sturmian_extremal", "fine_test",
        "finite_episturmian_test", "gamma_membership", "gan_phi_approx", "local_balance_check",
        "max_factor", "max_finite", "max_word", "min_factor", "min_finite", "min_word",
        "not_balanced_witness", "sigma_xy_member",
    ],
    "modone": [
        "DigitExpansion", "RationalInterval", "TorusPointSet", "bugeaud_dubickas_classify",
        "digits_from_rational", "fractional_parts", "gamma_tilde_member", "min_covering_interval",
        "real_bounds_from_digits", "self_sturmian_test", "thue_morse_constant", "veerman_interval",
    ],
    "oracle": ["enumerate_balanced", "episturmian_factor_corpus", "naive_min_max"],
}
EXPORTS = [name for names in NAMESPACE.values() for name in names]
PUBLIC = sorted([*EXPORTS, *NAMESPACE])  # the exports and the six submodules


def fresh(code: str) -> list:
    """Run `code` in a new interpreter without a bytecode cache; it prints one JSON value."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    return json.loads(out.splitlines()[-1])


LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'sturmlex')"

# what a command imports, run as `main(argv)` in a fresh interpreter
COMMAND = """
import contextlib, io, json, sys
from sturmlex.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main({argv!r})
    except SystemExit as e:
        code = e.code
print(json.dumps([code, {loaded}]))
"""

WORD_LAYERS = ["sturmlex", "sturmlex.cli", "sturmlex.generators", "sturmlex.surds", "sturmlex.words"]


COMMANDS = [
    (["generate", "thue-morse", "--len", "10"], []),
    (["analyze", "complexity", "--word", "fib", "--k-max", "4", "--prefix", "100"], []),
    (["analyze", "balance", "--word", "fib", "--prefix", "100"], []),
    (["analyze", "local-balance", "--word", "fib", "--n-max", "3", "--prefix", "100"],
     ["sturmlex.extremal"]),
    (["extremal", "characteristic", "--word", "fib", "--K", "20", "--L", "40"], ["sturmlex.extremal"]),
    (["modone", "cover", "--word", "fib", "--N", "20", "--L", "16"], ["sturmlex.modone"]),
    (["modone", "veerman", "--alpha", "(3-1*sqrt(5))/2", "--L", "16"], ["sturmlex.modone"]),
    (["modone", "self-sturmian", "--word", "prepend:1:characteristic:(-1+1*sqrt(5))/2",
      "--K", "100", "--L", "200"], ["sturmlex.extremal", "sturmlex.modone"]),
    (["oracle", "enumerate", "--n", "4"], ["sturmlex.extremal", "sturmlex.modone", "sturmlex.oracle"]),
    (["--help"], []),
    (["modone", "classify", "--word", "fib", "--prefix", "300"], ["sturmlex.modone"]),
    (["analyze", "block-condition", "--word", "fib", "--prefix", "100"], []),
]


@pytest.mark.parametrize("argv, extra", COMMANDS)
def test_a_command_loads_only_its_layers(argv, extra):
    code, loaded = fresh(COMMAND.format(argv=argv, loaded=LOADED))
    assert code == 0
    assert loaded == sorted(WORD_LAYERS + extra)


# which of ``modules`` a command loads, read before json is imported to print it
STDLIB = """
import contextlib, io, sys
from sturmlex.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main({argv!r})
    except SystemExit as e:
        code = e.code
loaded = sorted(set({modules!r}) & sys.modules.keys())
import json
print(json.dumps([code, loaded]))
"""


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS])
def test_no_command_loads_dataclasses_or_inspect(argv):
    code, loaded = fresh(STDLIB.format(argv=argv, modules=["dataclasses", "inspect"]))
    assert code == 0
    assert loaded == []


@pytest.mark.parametrize("argv", [
    ["generate", "thue-morse", "--len", "10"],
    ["generate", "mechanical", "--alpha", "(3-1*sqrt(5))/2", "--rho", "1/3", "--len", "100"],
    ["generate", "epistandard", "--directive", "abc*", "--len", "100"],
])
def test_text_generate_loads_no_json(argv):
    assert fresh(STDLIB.format(argv=argv, modules=["json"])) == [0, []]


def test_import_loads_no_submodule():
    assert fresh(f"import json, sys, sturmlex; print(json.dumps({LOADED}))") == ["sturmlex"]


def test_one_name_loads_its_own_submodule():
    code = f"import json, sys; from sturmlex import complexity; print(json.dumps({LOADED}))"
    assert fresh(code) == ["sturmlex", "sturmlex.words"]


def test_every_name_is_the_submodules_object():
    for module, names in NAMESPACE.items():
        sub = getattr(sturmlex, module)
        assert sub is sys.modules[f"sturmlex.{module}"]
        for name in names:
            assert getattr(sturmlex, name) is getattr(sub, name), name
    assert sturmlex.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        sturmlex.nonexistent


def test_star_import_and_dir_list_every_name():
    assert len(EXPORTS) == 77
    star, listed = fresh(
        "import json, sturmlex; ns = {}; exec('from sturmlex import *', ns); "
        "print(json.dumps([sorted(k for k in ns if k != '__builtins__'), dir(sturmlex)]))"
    )
    assert star == PUBLIC
    assert [name for name in listed if not name.startswith("_")] == PUBLIC
    assert "__version__" in listed


def outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parse(argv)
            code = None
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


GROUPS = {
    "generate": ["mechanical", "epistandard", "morphic", "thue-morse", "skew", "periodic-balanced"],
    "analyze": ["complexity", "balance", "special", "local-balance", "block-condition", "period"],
    "extremal": ["min-max", "characteristic", "epistandard-ineq", "fine", "finite-epi", "gamma",
                 "allowed-pair", "sigma", "phi-approx"],
    "modone": ["digits", "frac-parts", "cover", "classify", "self-sturmian", "gamma-tilde", "veerman"],
    "oracle": ["enumerate", "corpus", "diff"],
}
HELP_AND_ERRORS = [
    ["--help"],
    ["-h"],
    [],
    ["bogus"],
    ["bogus", "generate"],
    ["--format", "xml"],
    ["--format", "xml", "generate", "thue-morse"],
    ["--format", "json"],
    ["--format", "generate", "extremal", "fine"],
    ["--help", "modone"],
    *([group, "--help"] for group in GROUPS),
    *([group] for group in GROUPS),
    *([group, "bogus"] for group in GROUPS),
    *(["--format", "json", group] for group in GROUPS),
    *([group, leaf, "--help"] for group, leaves in GROUPS.items() for leaf in leaves),
    *([group, leaf, "--bogus"] for group, leaves in GROUPS.items() for leaf in leaves),
    ["generate", "mechanical"],
    ["analyze", "complexity", "--word", "fib"],
    ["extremal", "min-max", "--word", "fib"],
    ["modone", "digits"],
    ["oracle", "enumerate"],
    ["generate", "thue-morse", "--len", "-1"],
    ["extremal", "fine", "--word", "fib", "--K", "x"],
]


@pytest.mark.parametrize("argv", HELP_AND_ERRORS, ids=" ".join)
def test_group_parser_matches_full_parser(argv):
    full = outcome(lambda a: cli.build_parser().parse_args(a), argv)
    assert full[0] is not None  # help or a usage error: argparse exits
    assert outcome(cli.main, argv) == full


def test_group_parser_has_only_its_leaves():
    parser = cli.build_parser("modone")
    assert parser.parse_args(["modone", "gamma-tilde", "--x", "1/2"]).what == "gamma-tilde"
    for group in GROUPS:
        if group != "modone":
            code, _, err = outcome(parser.parse_args, [group, GROUPS[group][0]])
            assert code == 2 and "unrecognized arguments" in err


@pytest.mark.parametrize("argv, group", [
    (["generate", "thue-morse", "--len", "3"], "generate"),
    (["--format", "json", "modone", "gamma-tilde", "--x", "2/3"], "modone"),
    (["analyze", "period", "--word", "periodic:generate"], "analyze"),
    (["--help"], None),
    (["bogus"], None),
])
def test_main_builds_the_parser_of_the_first_group_named(argv, group, monkeypatch):
    asked = []
    build = cli.build_parser

    def spy(name=None):
        asked.append(name)
        return build(name)

    monkeypatch.setattr(cli, "build_parser", spy)
    outcome(cli.main, argv)
    assert asked == [group]


@pytest.mark.parametrize("module", NAMESPACE)
def test_every_public_definition_is_exported_by_its_module(module):
    mod = importlib.import_module(f"sturmlex.{module}")
    defined = [name for name, value in vars(mod).items()
               if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
               and value.__module__ == mod.__name__]
    assert defined and sorted(set(defined) - set(mod.__all__)) == []


@pytest.mark.parametrize("module", NAMESPACE)
def test_every_package_export_is_in_its_module_all(module):
    mod = importlib.import_module(f"sturmlex.{module}")
    assert sorted(set(sturmlex._EXPORTS[module]) - set(mod.__all__)) == []
