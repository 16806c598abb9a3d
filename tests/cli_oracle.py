"""The command-line parser that ``basisdetect.cli`` had when it was built on
``argparse``, kept as a test oracle for the table-driven parser.

Both parsers must accept and reject the same argument lists and, when they
accept, give the same value to every field; only the text of help and
error messages may differ.
"""

from __future__ import annotations

import argparse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basisdetect",
        description="Detect the term orders for which a polynomial set is a "
        "Groebner or SAGBI basis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "detect-gb": "term-order classes where the set is a Groebner basis",
        "detect-sagbi": "term-order classes where the set is a SAGBI basis",
        "classes": "all term-order equivalence classes of the set",
        "universal-gb": "is the set a Groebner basis for every term order?",
        "universal-sagbi": "is the set a SAGBI basis for every term order?",
        "rank": "rank the term-order classes by a closeness criterion",
    }
    for name, help_text in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--input", required=True, help="system file, or - for stdin")
        cmd.add_argument("--format", choices=("text", "json"), default="text")
        cmd.add_argument(
            "--method",
            choices=("subduction", "hilbert"),
            default="subduction",
            help="SAGBI membership criterion (detect-sagbi only)",
        )
        cmd.add_argument(
            "--hilbert-bound",
            type=int,
            default=None,
            metavar="N",
            help="degree cap for Hilbert comparisons",
        )
        cmd.add_argument(
            "--homogenize-t",
            action="store_true",
            help="multiply every input polynomial by a new first variable t",
        )
        cmd.add_argument(
            "--criterion",
            choices=("preferable", "nicer"),
            default="nicer",
            help="ranking criterion (rank only)",
        )
        cmd.add_argument(
            "--jobs", type=int, default=1, metavar="N", help="parallel class checks"
        )
    return parser
