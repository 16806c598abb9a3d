"""Command-line interface: parse a polynomial system file, run detection or
ranking, and emit a deterministic text or JSON report.

Input format (one statement per line, '#' starts a comment):

    ring: x, y
    polys:
    x^2 + y^2 - 1
    2*x*y - 1

Any ``key: value`` line before ``polys:`` other than the ring declaration
is collected into an options map.  Expressions use +, -, *, ^ with explicit
multiplication, parentheses, unary minus, and integer or rational literals
(e.g. 1/2); exponents are nonnegative integer literals.  A product or power
whose total degree (or exponent) would exceed MAX_DEGREE, or whose operand
term counts multiply to more than MAX_TERMS, is a parse error.

Exit codes: 0 on success, 1 when a detect command finds no classes, 2 on
input or option errors and when a computation hits a resource limit
(subduction step cap, recursion depth).  Reports go to stdout,
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .detect import verdicts
from .orders import OrderClass, extract_weight_vectors
from .polyring import Polynomial, PolynomialRing, homogenize_with_t
from .sagbi import HilbertBoundWarning, RankGroup, SubductionLimitError, rank_orders

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
OPTION_LINE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*):\s*(.*)\Z")
# Parser bounds: every example system needs degree 6 and single-term
# operands, and hostile input such as (x+y)^100000 must fail at once.
MAX_DEGREE = 100
MAX_TERMS = 10_000


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__("line %d, column %d: %s" % (line, column, message))
        self.line = line
        self.column = column


@dataclass
class SystemFile:
    """Parsed header plus the raw polynomial expression strings."""

    variables: list[str]
    polynomials: list[str]
    options: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# expression parsing

_TOKEN = re.compile(
    r"(?P<space>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^()/])"
)


def _tokenize(text: str, line: int):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ParseError("unexpected character %r" % text[pos], line, pos + 1)
        pos = match.end()
        if match.lastgroup == "space":
            continue
        tokens.append((match.lastgroup, match.group(), match.start() + 1))
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _ExprParser:
    """Recursive descent over +, -, * and ^ with explicit multiplication."""

    def __init__(self, text: str, line: int, ring: PolynomialRing):
        self.tokens = _tokenize(text, line)
        self.pos = 0
        self.line = line
        self.ring = ring

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, token=None):
        token = token or self.peek()
        raise ParseError(message, self.line, token[2])

    def check_size(self, degree: int, terms: int, token) -> None:
        """Refuse a product before computing it, given its total degree and
        an upper bound on its term count (and on its multiplication work)."""
        if degree > MAX_DEGREE:
            self.fail("total degree above %d" % MAX_DEGREE, token)
        if terms > MAX_TERMS:
            self.fail("product of more than %d terms" % MAX_TERMS, token)

    def parse(self) -> Polynomial:
        poly = self.expression()
        kind, value, _ = self.peek()
        if kind != "end":
            self.fail("unexpected %r" % value)
        return poly

    def expression(self) -> Polynomial:
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            poly = self.term()
            poly = -poly if value == "-" else poly
        else:
            poly = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                right = self.term()
                poly = poly + right if value == "+" else poly - right
            else:
                return poly

    def term(self) -> Polynomial:
        poly = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                star = self.advance()
                right = self.factor()
                self.check_size(
                    poly.total_degree() + right.total_degree(),
                    len(poly.terms) * len(right.terms),
                    star,
                )
                poly = poly * right
            else:
                return poly

    def factor(self) -> Polynomial:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return -self.factor()
        base = self.atom()
        kind, value, start = self.peek()
        if kind == "op" and value == "^":
            caret = self.advance()
            kind, value, start = self.peek()
            if kind == "op" and value == "-":
                self.fail("negative exponent")
            if kind != "int":
                self.fail("exponent must be a nonnegative integer literal")
            self.advance()
            k = int(value)
            if k > MAX_DEGREE:
                self.fail("exponent above %d" % MAX_DEGREE, caret)
            m = len(base.terms)
            # the last step of Polynomial.__pow__ multiplies f^(k-1), of at
            # most C(m+k-2, k-1) terms (one per multiset of terms of f), by f
            last = comb(m + k - 2, k - 1) * m if k > 1 else m
            self.check_size(base.total_degree() * k, last, caret)
            return base**k
        return base

    def atom(self) -> Polynomial:
        kind, value, start = self.advance()
        if kind == "int":
            numerator = int(value)
            kind, slash, _ = self.peek()
            if kind == "op" and slash == "/":
                self.advance()
                kind, denom, _ = self.peek()
                if kind != "int":
                    self.fail("expected integer denominator")
                self.advance()
                if int(denom) == 0:
                    self.fail("zero denominator")
                return self.ring.constant(Fraction(numerator, int(denom)))
            return self.ring.constant(numerator)
        if kind == "name":
            if value not in self.ring.variables:
                raise ParseError(
                    "undeclared variable %r" % value, self.line, start
                )
            return self.ring.variable(value)
        if kind == "op" and value == "(":
            poly = self.expression()
            kind, value, _ = self.peek()
            if not (kind == "op" and value == ")"):
                self.fail("expected ')'")
            self.advance()
            return poly
        raise ParseError(
            "expected a variable, number or '('", self.line, start
        )


def parse_expression(text: str, line: int, ring: PolynomialRing) -> Polynomial:
    return _ExprParser(text, line, ring).parse()


def parse_system(text: str) -> tuple[SystemFile, list[Polynomial]]:
    """Parse a system file into its header and polynomials."""
    variables: list[str] | None = None
    options: dict = {}
    expressions: list[tuple[int, str]] = []
    in_polys = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if in_polys:
            expressions.append((lineno, line))
            continue
        stripped = line.strip()
        if stripped.startswith("ring:"):
            if variables is not None:
                raise ParseError("duplicate ring declaration", lineno)
            names = [part.strip() for part in stripped[5:].split(",")]
            if names == [""]:
                raise ParseError("empty variable list", lineno)
            for name in names:
                if not IDENTIFIER.match(name):
                    raise ParseError("bad variable name %r" % name, lineno)
            if len(set(names)) != len(names):
                raise ParseError("duplicate variable names", lineno)
            variables = names
            continue
        if stripped == "polys:":
            if variables is None:
                raise ParseError("polys: before ring declaration", lineno)
            in_polys = True
            continue
        match = OPTION_LINE.match(stripped)
        if match:
            options[match.group(1)] = match.group(2)
            continue
        raise ParseError("expected 'ring:', 'polys:' or 'key: value'", lineno)
    if variables is None:
        raise ParseError("missing ring declaration", 1)
    if not expressions:
        raise ParseError("no polynomials given", len(text.splitlines()) or 1)
    ring = PolynomialRing(tuple(variables))
    polys = [parse_expression(expr, lineno, ring) for lineno, expr in expressions]
    for (lineno, _), f in zip(expressions, polys):
        if f.is_zero():
            raise ParseError("polynomial is identically zero", lineno)
    system = SystemFile(variables, [expr for _, expr in expressions], options)
    return system, polys


# ---------------------------------------------------------------------------
# report assembly


def _class_entry(ring: PolynomialRing, cls: OrderClass, is_basis=None) -> dict:
    return {
        "weight": list(cls.weight),
        "leading_monomials": [ring.format_monomial(e) for e in cls.leads],
        "is_basis": is_basis,
    }


def _render_class_line(entry: dict) -> str:
    return "weight %s: leads %s" % (
        entry["weight"],
        ", ".join(entry["leading_monomials"]),
    )


def _emit(report: dict, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(report, out, indent=2)
        out.write("\n")
        return
    lines = []
    if "classes" in report:
        lines.append("found %d classes" % len(report["classes"]))
        for entry in report["classes"]:
            lines.append(_render_class_line(entry))
    if "universal" in report:
        lines.append("universal: %s" % ("true" if report["universal"] else "false"))
        if report.get("counterexample"):
            lines.append(
                "counterexample " + _render_class_line(report["counterexample"])
            )
    if "groups" in report:
        total = sum(len(g["classes"]) for g in report["groups"])
        lines.append(
            "ranked %d classes in %d groups by %s"
            % (total, len(report["groups"]), report["criterion"])
        )
        for i, group in enumerate(report["groups"], 1):
            if report["criterion"] == "nicer":
                label = "dim %d, degree %d" % (group["dim"], group["degree"])
            else:
                label = "hilbert %s" % (group["hilbert_vector"],)
            lines.append("group %d (%s):" % (i, label))
            for entry in group["classes"]:
                lines.append("  " + _render_class_line(entry))
    if report.get("bound_warning"):
        lines.append("warning: %s" % report["bound_warning"])
    out.write("\n".join(lines) + "\n")


def _group_entry(ring: PolynomialRing, criterion: str, group: RankGroup) -> dict:
    entry = {"classes": [_class_entry(ring, c) for c in group]}
    if criterion == "nicer":
        entry["dim"], entry["degree"] = group.score
    else:
        entry["hilbert_vector"] = list(group.score)
    return entry


# the criterion each command runs; detect-sagbi takes it from --method
COMMAND_CRITERION = {
    "detect-gb": "buchberger",
    "universal-gb": "buchberger",
    "universal-sagbi": "subduction",
}


def run(args) -> int:
    """Execute one parsed command line; returns the process exit code."""
    options = (("--jobs", args.jobs), ("--hilbert-bound", args.hilbert_bound))
    for option, value in options:
        if value is not None and value < 1:
            print(
                "option error: %s must be at least 1, got %d" % (option, value),
                file=sys.stderr,
            )
            return 2
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print("input error: %s" % exc, file=sys.stderr)
            return 2
    try:
        system, polys = parse_system(text)
        if args.homogenize_t:
            polys = homogenize_with_t(polys)
        ring = polys[0].ring
        report: dict = {"variables": list(ring.variables)}
        command = args.command
        bound_warnings: list = []
        with warnings.catch_warnings():
            warnings.simplefilter("always", HilbertBoundWarning)
            show = warnings.showwarning

            def keep_bound_warning(message, category, *rest):
                # other warnings are shown as they are raised, as by default
                if issubclass(category, HilbertBoundWarning):
                    bound_warnings.append(str(message))
                else:
                    show(message, category, *rest)

            warnings.showwarning = keep_bound_warning
            if command == "classes":
                report["method"] = None
                report["classes"] = [
                    _class_entry(ring, c) for c in extract_weight_vectors(polys)
                ]
            elif command == "rank":
                report["criterion"] = args.criterion
                groups = rank_orders(polys, args.criterion, args.hilbert_bound)
                report["groups"] = [
                    _group_entry(ring, args.criterion, g) for g in groups
                ]
            else:
                report["method"] = COMMAND_CRITERION.get(command, args.method)
                checked = verdicts(
                    polys, report["method"], bound=args.hilbert_bound, jobs=args.jobs
                )
                if command.startswith("detect-"):
                    report["classes"] = [
                        _class_entry(ring, c, True) for c, ok in checked if ok
                    ]
                else:
                    failing = next((c for c, ok in checked if not ok), None)
                    checked.close()
                    report["universal"] = failing is None
                    report["counterexample"] = (
                        _class_entry(ring, failing, False) if failing else None
                    )
        if bound_warnings:
            report["bound_warning"] = bound_warnings[-1]
        _emit(report, args.format, sys.stdout)
        if command.startswith("detect-") and not report["classes"]:
            return 1
        return 0
    except (ParseError, ValueError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except (SubductionLimitError, RecursionError) as exc:
        print("limit error: %s" % exc, file=sys.stderr)
        return 2


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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
