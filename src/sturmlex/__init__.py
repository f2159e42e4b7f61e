"""sturmlex: exact-arithmetic Sturmian/episturmian words and their extremal properties.

The public names below are loaded on first access (PEP 562), so ``import
sturmlex`` loads no submodule and a command pays only for the layers it runs.
"""

__version__ = "0.1.0"

# submodule -> the names it exports here
_EXPORTS = {
    "words": (
        "Alphabet",
        "BINARY",
        "BINARY_AB",
        "ComparisonOutcome",
        "FiniteWord",
        "InfiniteWord",
        "LexOrder",
        "Relation",
        "UltimatelyPeriodicWord",
        "balance_violation",
        "block_condition",
        "classify_eventually_periodic",
        "complement",
        "complexity",
        "detect_period",
        "factors",
        "is_balanced",
        "is_palindrome",
        "lex_compare",
        "prepend",
        "reversal",
        "shift",
        "special_factors",
        "word_from_text",
        "word_to_text",
    ),
    "surds": ("QuadraticSurd", "parse_surd", "surd_compare", "surd_floor"),
    "generators": (
        "DirectiveWord",
        "Morphism",
        "characteristic",
        "epistandard",
        "fibonacci_slope",
        "iterated_pal",
        "kbonacci",
        "mechanical_lower",
        "mechanical_upper",
        "pal_closure",
        "periodic_balanced",
        "skew_word",
        "thue_morse",
    ),
    "extremal": (
        "AcceptablePair",
        "BoundedVerdict",
        "acceptable_pairs",
        "allowed_pair_check",
        "characteristic_check",
        "check_epistandard_ineq",
        "check_sturmian_extremal",
        "fine_test",
        "finite_episturmian_test",
        "gamma_membership",
        "gan_phi_approx",
        "local_balance_check",
        "max_factor",
        "max_finite",
        "max_word",
        "min_factor",
        "min_finite",
        "min_word",
        "not_balanced_witness",
        "sigma_xy_member",
    ),
    "modone": (
        "DigitExpansion",
        "RationalInterval",
        "TorusPointSet",
        "bugeaud_dubickas_classify",
        "digits_from_rational",
        "fractional_parts",
        "gamma_tilde_member",
        "min_covering_interval",
        "real_bounds_from_digits",
        "self_sturmian_test",
        "thue_morse_constant",
        "veerman_interval",
    ),
    "oracle": ("enumerate_balanced", "episturmian_factor_corpus", "naive_min_max"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

# the exported names and the submodules themselves, as an eager import would bind them
__all__ = sorted([*_SOURCE, *_EXPORTS])


def __getattr__(name: str):
    module = name if name in _EXPORTS else _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module: the import statement's own
    # path, which `python -X importtime` reports
    submodule = getattr(__import__(f"{__name__}.{module}"), module)
    value = submodule if module == name else getattr(submodule, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
