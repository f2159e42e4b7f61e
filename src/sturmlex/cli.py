"""Command-line surface: generate, analyze, extremal, modone, oracle.

Exit codes: 0 for holds/true (and plain generation), 1 for fails/false,
2 for usage errors, 3 for an internal error (a bug, reported on stderr).
JSON output is deterministic: fixed key order, rationals in lowest terms.
Word sources are builtin names, inline constructions, or serialized word
files; see ``--help`` of each subcommand.

Each group's leaves and handler live in ``sturmlex.commands.<group>``, which
``main`` imports only for the group a command names, and of whose leaves it
builds only the one the command names.
"""

from __future__ import annotations

import argparse
import os
import sys

# group -> its help; sturmlex.commands.<group> adds its leaves and runs its commands
_GROUPS = {
    "generate": "construct words",
    "analyze": "factor/balance analysis",
    "extremal": "lexicographic extremal checks",
    "modone": "distribution modulo one",
    "oracle": "brute-force ground truth",
}


def _group(name: str):
    """The command module of a group: ``add_leaves(sub)`` and ``run(args)``."""
    # __import__, not importlib.import_module: the import statement's own
    # path, which `python -X importtime` reports
    return __import__(f"sturmlex.commands.{name}", fromlist=["run"])


def build_parser(group: str | None = None, leaf: str | None = None) -> argparse.ArgumentParser:
    """The command parser; with ``group``, only that group gets its leaf subcommands,
    and with a ``leaf`` of that group's, only that leaf.

    Every group parser exists either way, so the top-level help and errors do
    not depend on ``group``; and a leaf's parser is the same alone, so its
    help and errors do not depend on ``leaf``.
    """
    parser = argparse.ArgumentParser(
        prog="sturmlex",
        description="Exact-arithmetic toolkit for Sturmian/episturmian words and "
        "distribution of fractional parts modulo 1.",
        epilog="Prefix evaluation is capped by the STURMLEX_MAX_LEN environment variable.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    top = parser.add_subparsers(dest="group", required=True)
    for name, help_text in _GROUPS.items():
        sub = top.add_parser(name, help=help_text)
        if group is None or group == name:
            leaves = sub.add_subparsers(dest="what", required=True)
            _group(name).add_leaves(leaves, leaf)
            if not leaves.choices:  # leaf names none of the group's leaves
                _group(name).add_leaves(leaves)
    return parser


# the options that take no value; every other option takes one
_SWITCHES = ("--help", "--upper", "--csv", "--linear")


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each token such as -2/7 after a value-taking option joined to it as --rho=-2/7.

    argparse reads a token that starts with '-' as an option unless it has
    the form of a negative number such as -3 or -0.5, so a negative rational
    given as its own token would be a usage error.  A switch, or a prefix of
    one (argparse accepts it as an abbreviation; "--" is a prefix of every
    switch), takes no value and is left alone.
    """
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if (
            token[:1] == "-"
            and token[1:2].isdigit()
            and prev.startswith("--")
            and "=" not in prev
            and not any(switch.startswith(prev) for switch in _SWITCHES)
        ):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if hasattr(sys, "set_int_max_str_digits"):
        # Python 3.11 (and 3.10.7) refuses int/str conversions past 4300 digits;
        # STURMLEX_MAX_LEN already bounds the digits read and printed
        sys.set_int_max_str_digits(0)
    argv = _join_negative_values(argv)
    # the first token naming a group, and the token after it, pick the leaves
    # to build; with no group (--help, a bad group) the full parser reports it
    at = next((i for i, token in enumerate(argv) if token in _GROUPS), len(argv))
    group, leaf = [*argv[at : at + 2], None, None][:2]
    try:
        # building the parser loads words, which reads STURMLEX_MAX_LEN
        args = build_parser(group, leaf).parse_args(argv)
        from .commands import _emit

        rep = _group(args.group).run(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        import traceback  # only on this path: it would add to every start

        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    try:
        code = _emit(args, rep)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # what is still buffered goes nowhere, so the interpreter's last flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout closed before the output was written", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
