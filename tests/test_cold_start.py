"""Start-up: each command loads only the layers it runs, with the same output.

`import sturmlex` loads no submodule; the package names resolve on first
access to the very objects the submodules define.  A command imports the
command module of its own group only (`sturmlex.commands.<group>`), builds
the parser of its own leaf only, and its help and usage errors are the bytes
the full parser gives.  A leaf loads the library layers it runs: a
shift-chain check no factor analysis, a word with no slope no surd
arithmetic, and a surd no `fractions`.
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

# every public name of the package, by the submodule that defines it
NAMESPACE = {
    "words": [
        "Alphabet", "BINARY", "BINARY_AB", "ComparisonOutcome", "FiniteWord", "InfiniteWord",
        "LexOrder", "Relation", "UltimatelyPeriodicWord", "complement", "prepend", "shift",
        "word_from_text", "word_to_text",
    ],
    "analysis": [
        "balance_violation", "block_condition", "classify_eventually_periodic", "complexity",
        "detect_period", "factors", "is_balanced", "lex_compare", "special_factors",
    ],
    "surds": ["QuadraticSurd", "parse_surd"],
    "generators": [
        "DirectiveWord", "Morphism", "characteristic", "epistandard", "fibonacci_slope",
        "iterated_pal", "kbonacci", "mechanical_lower", "mechanical_upper", "pal_closure",
        "periodic_balanced", "skew_word", "thue_morse",
    ],
    "extremal": [
        "BoundedVerdict", "acceptable_pairs", "allowed_pair_check",
        "characteristic_check", "check_epistandard_ineq", "check_sturmian_extremal", "fine_test",
        "finite_episturmian_test", "gamma_membership", "gan_phi_approx", "local_balance_check",
        "max_factor", "max_finite", "min_factor", "min_finite",
        "not_balanced_witness", "sigma_xy_member",
    ],
    "modone": [
        "DigitExpansion", "RationalInterval", "bugeaud_dubickas_classify",
        "digits_from_rational", "fractional_parts", "gamma_tilde_member", "min_covering_interval",
        "real_bounds_from_digits", "self_sturmian_test", "thue_morse_constant", "veerman_interval",
    ],
    "oracle": ["enumerate_balanced", "episturmian_factor_corpus", "naive_min_max"],
}
EXPORTS = [name for names in NAMESPACE.values() for name in names]
PUBLIC = sorted([*EXPORTS, *NAMESPACE])  # the exports and the seven submodules


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



def own_modules(argv: list[str]) -> list[str]:
    """The CLI modules a command loads: its group's command module, or every group's for the full parser."""
    groups = [argv[0]] if argv[0] in cli._GROUPS else list(cli._GROUPS)
    return ["sturmlex", "sturmlex.cli", "sturmlex.commands", *(f"sturmlex.commands.{g}" for g in groups)]


SLOPES = ["sturmlex.analysis", "sturmlex.generators", "sturmlex.surds"]  # a word with a slope, analysed
SLOPE = ["sturmlex.generators", "sturmlex.surds"]  # a word with a slope
NO_SLOPE = ["sturmlex.analysis", "sturmlex.generators"]  # a word with no slope, analysed
THUE_MORSE = ["generate", "thue-morse", "--len", "10"]
EPISTANDARD = ["generate", "epistandard", "--directive", "abc*", "--len", "10"]

# argv, and the library layers it loads besides words and its own modules
COMMANDS = [
    (THUE_MORSE, ["sturmlex.generators"]),
    (["analyze", "complexity", "--word", "fib", "--k-max", "4", "--prefix", "100"], SLOPES),
    (["analyze", "balance", "--word", "fib", "--prefix", "100"], SLOPES),
    (["analyze", "local-balance", "--word", "fib", "--n-max", "3", "--prefix", "100"],
     [*SLOPES, "sturmlex.extremal"]),
    (["extremal", "characteristic", "--word", "fib", "--K", "20", "--L", "40"], [*SLOPE, "sturmlex.extremal"]),
    (["modone", "cover", "--word", "fib", "--N", "20", "--L", "16"], [*SLOPE, "sturmlex.modone"]),
    (["modone", "veerman", "--alpha", "(3-1*sqrt(5))/2", "--L", "16"], [*SLOPE, "sturmlex.modone"]),
    (["modone", "self-sturmian", "--word", "prepend:1:characteristic:(-1+1*sqrt(5))/2",
      "--K", "100", "--L", "200"], [*SLOPES, "sturmlex.extremal", "sturmlex.modone"]),
    (["oracle", "enumerate", "--n", "4"], ["sturmlex.oracle"]),
    (["--help"], []),
    (["modone", "classify", "--word", "fib", "--prefix", "300"], [*SLOPES, "sturmlex.modone"]),
    (["analyze", "block-condition", "--word", "fib", "--prefix", "100"], SLOPES),
    (EPISTANDARD, ["sturmlex.generators"]),
    (["extremal", "phi-approx", "--word", "fib", "--P", "2", "--K", "20", "--L", "40"],
     [*SLOPE, "sturmlex.extremal"]),
    (["extremal", "fine", "--word", "kbonacci:4", "--K", "20"], [*NO_SLOPE, "sturmlex.extremal"]),
    (["extremal", "epistandard-ineq", "--word", "kbonacci:4", "--K", "20", "--L", "40"],
     [*NO_SLOPE, "sturmlex.extremal"]),
    (["extremal", "finite-epi", "--body", "0100101"], ["sturmlex.analysis", "sturmlex.extremal"]),
    (["analyze", "local-balance", "--word", "tribonacci", "--n-max", "3", "--prefix", "100"],
     [*NO_SLOPE, "sturmlex.extremal"]),
    (["modone", "gamma-tilde", "--x", "2/3"], ["sturmlex.modone"]),
]


@pytest.mark.parametrize("argv, extra", COMMANDS)
def test_a_command_loads_only_its_layers(argv, extra):
    code, loaded = fresh(COMMAND.format(argv=argv, loaded=LOADED))
    assert code == 0
    assert loaded == sorted([*own_modules(argv), "sturmlex.words", *extra])
    if argv[0] in cli._GROUPS:
        assert [m for m in loaded if m.startswith("sturmlex.commands.")] == [f"sturmlex.commands.{argv[0]}"]


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


@pytest.mark.parametrize("argv", [THUE_MORSE, EPISTANDARD])
def test_words_without_a_slope_load_no_rationals(argv):
    assert fresh(STDLIB.format(argv=argv, modules=["fractions", "decimal"])) == [0, []]


@pytest.mark.parametrize("argv", [
    ["generate", "mechanical", "--alpha", "(3-1*sqrt(5))/2", "--rho", "1/3", "--len", "100"],
    ["generate", "mechanical", "--alpha", "1/3", "--len", "10"],
    ["extremal", "characteristic", "--word", "fib", "--K", "20", "--L", "40"],
    ["analyze", "complexity", "--word", "fib", "--k-max", "4", "--prefix", "100"],
])
def test_surds_load_no_rationals(argv):
    assert fresh(STDLIB.format(argv=argv, modules=["fractions", "decimal"])) == [0, []]


def test_oracle_enumerate_loads_no_rationals():
    argv = ["oracle", "enumerate", "--n", "4"]
    assert fresh(STDLIB.format(argv=argv, modules=["fractions", "decimal"])) == [0, []]


def test_import_loads_no_submodule():
    assert fresh(f"import json, sys, sturmlex; print(json.dumps({LOADED}))") == ["sturmlex"]


def test_one_name_loads_its_own_submodule():
    code = f"import json, sys; from sturmlex import complexity; print(json.dumps({LOADED}))"
    assert fresh(code) == ["sturmlex", "sturmlex.analysis", "sturmlex.words"]


def test_generators_load_surds_only_for_a_slope():
    code = (f"import json, sys; from sturmlex import thue_morse; before = {LOADED}; "
            f"from sturmlex import fibonacci_slope; fibonacci_slope(); print(json.dumps([before, {LOADED}]))")
    assert fresh(code) == [["sturmlex", "sturmlex.generators", "sturmlex.words"],
                           ["sturmlex", "sturmlex.generators", "sturmlex.surds", "sturmlex.words"]]


# a command run as `python -m sturmlex.cli` does: the module runs as __main__
AS_MAIN = """
import contextlib, io, json, runpy, sys
sys.argv = ["sturmlex", *{argv!r}]
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    try:
        runpy.run_module("sturmlex.cli", run_name="__main__", alter_sys=True)
        code = None
    except SystemExit as e:
        code = e.code
print(json.dumps([code, err.getvalue(), "sturmlex.cli" in sys.modules]))
"""


@pytest.mark.parametrize("argv, code, err", [
    (THUE_MORSE, 0, ""),
    (["--help"], 0, ""),
    (["extremal", "characteristic", "--word", "bogus:1"], 2, "error: unknown word spec 'bogus:1'\n"),
    (["modone", "gamma-tilde", "--x", "1/0"], 2, "error: '1/0' has a zero denominator\n"),
    (["analyze", "balance", "--word", "mechanical:1/3"], 2, "error: mechanical: expected mechanical:ALPHA:RHO\n"),
], ids=["generate", "help", "unknown-spec", "zero-denominator", "malformed-spec"])
def test_run_as_main_imports_no_second_cli(argv, code, err):
    """A group module that imported sturmlex.cli would compile and run it a second time."""
    assert fresh(AS_MAIN.format(argv=argv)) == [code, err, False]


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
    assert (len(EXPORTS), len(PUBLIC)) == (69, 76)
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
    # a leaf name that is not the token after the group
    ["extremal", "--help", "fine"],
    ["extremal", "-h", "fine"],
    ["extremal", "fine", "--word", "fine", "--K", "x"],
    ["extremal", "finee"],
    ["--format", "fine", "extremal", "fine"],
    ["modone", "gamma-tilde", "--x"],
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


def test_leaf_parser_has_only_its_leaf():
    parser = cli.build_parser("modone", "gamma-tilde")
    assert parser.parse_args(["modone", "gamma-tilde", "--x", "1/2"]).what == "gamma-tilde"
    for leaf in GROUPS["modone"]:
        if leaf != "gamma-tilde":
            code, _, err = outcome(parser.parse_args, ["modone", leaf])
            assert code == 2 and "invalid choice" in err
    # a token that names no leaf of the group gets all of them
    assert cli.build_parser("modone", "bogus").parse_args(["modone", "veerman", "--alpha", "1/2"]).what == "veerman"


@pytest.mark.parametrize("argv, group", [
    (["generate", "thue-morse", "--len", "3"], "generate"),
    (["--format", "json", "modone", "gamma-tilde", "--x", "2/3"], "modone"),
    (["analyze", "period", "--word", "periodic:generate"], "analyze"),
    (["--help"], None),
    (["bogus"], None),
    (["extremal", "finee"], "extremal"),
    (["extremal"], "extremal"),
])
def test_main_builds_the_parser_of_the_first_group_named(argv, group, monkeypatch):
    """main asks for the first group named and for the token after it, which names a leaf or not."""
    asked = []
    build = cli.build_parser

    def spy(name=None, leaf=None):
        asked.append((name, leaf))
        return build(name, leaf)

    monkeypatch.setattr(cli, "build_parser", spy)
    outcome(cli.main, argv)
    after = argv[argv.index(group) + 1 :] if group else []
    assert asked == [(group, after[0] if after else None)]


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
