"""Command-line interface: parse a polynomial system file, run detection or
ranking, and emit a deterministic text or JSON report.

Input format (one statement per line, '#' starts a comment):

    ring: x, y
    polys:
    x^2 + y^2 - 1
    2*x*y - 1

Any other ``key: value`` line before ``polys:`` is accepted and ignored.
Expressions use +, -, *, ^ with explicit multiplication, parentheses,
unary minus, and integer or rational literals (e.g. 1/2); exponents are
nonnegative integer literals.  A product or power whose total degree (or
exponent) would exceed MAX_DEGREE, or whose operand term counts multiply
to more than MAX_TERMS, is a parse error, as is an integer literal with
more digits than the interpreter converts (4300 by default).

Exit codes: 0 on success (and for ``-h``), 1 when a detect command finds
no classes, 2 on usage, input or option errors (``input error: stdin is
closed`` for ``--input -`` without a stdin), when a computation or the
read of the input hits a resource limit (10 000 steps in one subduction,
recursion depth, memory: ``limit error: out of memory``), and when
stdout cannot be written (``output error: <reason>``: a reader that has
gone, a full device, no stdout at all).  Reports go to stdout,
diagnostics to stderr; a usage error prints a ``usage:`` line and
``basisdetect: error: <reason>``.  A diagnostic that cannot be written
(stderr closed) is dropped, and the exit code stays.  A JSON report is
written by ``_json``, which escapes strings with the C function of
``json.dumps``; no command loads the ``json`` package.
"""

from __future__ import annotations

import gc
import os
import re
import sys
import warnings
from fractions import Fraction
from math import comb
from types import SimpleNamespace
from typing import NoReturn

from .orders import OrderClass, extract_weight_vectors
from .polyring import (
    HilbertBoundWarning,
    Polynomial,
    PolynomialRing,
    SubductionLimitError,
    homogenize_with_t,
)

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# a header line that is accepted and ignored
HEADER_LINE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*:")
# Parser bounds: every example system needs degree 6 and single-term
# operands, and hostile input such as (x+y)^100000 must fail at once.
MAX_DEGREE = 100
MAX_TERMS = 10_000


class _OutputError(Exception):
    """A write to stdout failed, or there is no stdout (fd 1 was closed at
    start).  Not a ValueError, so ``run`` does not read it as bad input."""


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__("line %d, column %d: %s" % (line, column, message))
        self.line = line
        self.column = column


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

    def integer(self, token) -> int:
        """The value of an integer literal token; one with more digits than
        the interpreter converts (``sys.get_int_max_str_digits``) fails."""
        try:
            return int(token[1])
        except ValueError:
            self.fail("integer literal of %d digits is too long" % len(token[1]), token)

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
        # a leading '-' is the unary minus of ``factor``
        kind, value, _ = self.peek()
        if kind == "op" and value == "+":
            self.advance()
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
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            caret = self.advance()
            kind, value, _ = self.peek()
            if kind == "op" and value == "-":
                self.fail("negative exponent")
            if kind != "int":
                self.fail("exponent must be a nonnegative integer literal")
            k = self.integer(self.advance())
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
        token = self.advance()
        kind, value, _ = token
        if kind == "int":
            numerator = self.integer(token)
            kind, slash, _ = self.peek()
            if kind == "op" and slash == "/":
                self.advance()
                if self.peek()[0] != "int":
                    self.fail("expected integer denominator")
                denom = self.integer(self.advance())
                if denom == 0:
                    self.fail("zero denominator")
                return self.ring.constant(Fraction(numerator, denom))
            return self.ring.constant(numerator)
        if kind == "name":
            if value not in self.ring.variables:
                self.fail("undeclared variable %r" % value, token)
            return self.ring.variable(value)
        if kind == "op" and value == "(":
            poly = self.expression()
            kind, value, _ = self.peek()
            if not (kind == "op" and value == ")"):
                self.fail("expected ')'")
            self.advance()
            return poly
        self.fail("expected a variable, number or '('", token)


def parse_system(text: str) -> list[Polynomial]:
    """Parse a system file into its polynomials.  One leading byte-order
    mark (U+FEFF), as some editors write it, is dropped."""
    text = text.removeprefix("\ufeff")
    variables: list[str] | None = None
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
        if HEADER_LINE.match(stripped):
            continue
        raise ParseError("expected 'ring:', 'polys:' or 'key: value'", lineno)
    if variables is None:
        raise ParseError("missing ring declaration", 1)
    if not expressions:
        raise ParseError("no polynomials given", len(text.splitlines()) or 1)
    ring = PolynomialRing(tuple(variables))
    polys = [_ExprParser(expr, lineno, ring).parse() for lineno, expr in expressions]
    for (lineno, _), f in zip(expressions, polys):
        if f.is_zero():
            raise ParseError("polynomial is identically zero", lineno)
    return polys


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


def _write(text: str) -> None:
    """Write ``text`` to stdout and flush it; each command line writes
    stdout once.  Any failure is an ``_OutputError``."""
    if sys.stdout is None:
        raise _OutputError("stdout is closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise _OutputError(exc) from exc


def _diagnose(text: str) -> None:
    """Write one diagnostic line to stderr.  Without a stderr, or when the
    write fails, the line is lost and the exit code stays as it is."""
    if sys.stderr is None:
        return
    try:
        sys.stderr.write(text + "\n")
    except OSError:
        pass


def _json(report) -> str:
    """``json.dumps(report, indent=2)``, byte for byte, for the values a
    report holds: dicts with str keys, lists, str, int, bool and None.
    Strings are escaped by the C function ``json.dumps`` itself uses, and
    the ``json`` package, which no command needs, is not loaded."""
    from _json import encode_basestring_ascii as string

    def encode(value, indent: str) -> str:
        if isinstance(value, str):
            return string(value)
        if value is None:
            return "null"
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, int):
            return int.__repr__(value)
        inner = indent + "  "
        if isinstance(value, dict):
            items = [
                inner + string(k) + ": " + encode(v, inner) for k, v in value.items()
            ]
            brackets = "{}"
        elif isinstance(value, list):
            items = [inner + encode(v, inner) for v in value]
            brackets = "[]"
        else:
            raise TypeError("%s is not a report value" % type(value).__name__)
        if not items:
            return brackets
        return brackets[0] + "\n" + ",\n".join(items) + "\n" + indent + brackets[1]

    return encode(report, "")


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        _write(_json(report) + "\n")
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
    _write("\n".join(lines) + "\n")


def _group_entry(ring: PolynomialRing, criterion: str, group) -> dict:
    """Report entry of one ``rank.RankGroup``."""
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
            _diagnose("option error: %s must be at least 1, got %d" % (option, value))
            return 2
    try:
        # inside the outer try, so that running out of memory while reading
        # is a limit error and an undecodable input (a ValueError) an input
        # error
        try:
            if args.input == "-":
                if sys.stdin is None:
                    raise OSError("stdin is closed")
                text = sys.stdin.read()
            else:
                with open(args.input, "r", encoding="utf-8") as handle:
                    text = handle.read()
        except OSError as exc:
            _diagnose("input error: %s" % exc)
            return 2
        polys = parse_system(text)
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
                from .rank import rank_orders

                report["criterion"] = args.criterion
                groups = rank_orders(polys, args.criterion, args.hilbert_bound)
                report["groups"] = [
                    _group_entry(ring, args.criterion, g) for g in groups
                ]
            else:
                from .detect import verdicts

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
        _emit(report, args.format)
        if command.startswith("detect-") and not report["classes"]:
            return 1
        return 0
    except ValueError as exc:
        _diagnose("input error: %s" % exc)
        return 2
    except (SubductionLimitError, RecursionError) as exc:
        _diagnose("limit error: %s" % exc)
        return 2
    except MemoryError:
        _diagnose("limit error: out of memory")
        return 2


# ---------------------------------------------------------------------------
# command line

DESCRIPTION = (
    "Detect the term orders for which a polynomial set is a Groebner or "
    "SAGBI basis."
)
USAGE = "usage: basisdetect COMMAND --input FILE [OPTION ...]"

COMMANDS = {
    "detect-gb": "term-order classes where the set is a Groebner basis",
    "detect-sagbi": "term-order classes where the set is a SAGBI basis",
    "classes": "all term-order equivalence classes of the set",
    "universal-gb": "is the set a Groebner basis for every term order?",
    "universal-sagbi": "is the set a SAGBI basis for every term order?",
    "rank": "rank the term-order classes by a closeness criterion",
}

# option -> (value, default, help); the value is int, str, a tuple of the
# accepted words, or None for a flag that takes no value.  Every command
# takes every option; --input is required.
OPTIONS = {
    "--input": (str, None, "system file, or - for stdin (required)"),
    "--format": (("text", "json"), "text", "report format"),
    "--method": (
        ("subduction", "hilbert"),
        "subduction",
        "SAGBI membership criterion (detect-sagbi only)",
    ),
    "--hilbert-bound": (int, None, "degree cap for Hilbert comparisons"),
    "--homogenize-t": (
        None,
        False,
        "multiply every input polynomial by a new first variable t",
    ),
    "--criterion": (
        ("preferable", "nicer"),
        "nicer",
        "ranking criterion (rank only)",
    ),
    "--jobs": (int, 1, "parallel class checks"),
}
HELP = ("-h", "--help")
METAVAR = {str: "FILE", int: "N"}

# a token that starts with '-' is still a value when it is a negative
# number or contains a space (as the standard library's parser reads it);
# compiled only when such a token comes up
NEGATIVE_NUMBER = r"-\d+$|-\d*\.\d+$"


class UsageError(ValueError):
    """A command line that does not follow the grammar of ``parse_args``."""


def _option(token: str, names) -> tuple[str, str | None] | None:
    """How ``parse_args`` reads one token, given the option names in scope.

    None for a value; otherwise the full option name (empty for an unknown
    option) and the value attached with '=', or None when there is none.
    A long option may be shortened to any prefix that no other option
    name shares.
    """
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    key, eq, attached = token.partition("=")
    if eq and key in names:
        return key, attached
    if token.startswith("--"):
        matches = [name for name in names if name.startswith(key)]
        if len(matches) > 1:
            raise UsageError(
                "ambiguous option: %s could match %s" % (token, ", ".join(matches))
            )
        if matches:
            return matches[0], attached if eq else None
    elif token[:2] in names:  # a short option with text attached
        return token[:2], token[2:]
    if " " in token or re.match(NEGATIVE_NUMBER, token):
        return None
    return "", None


def _value(name: str, kind, text: str):
    if isinstance(kind, tuple):
        if text not in kind:
            raise UsageError(
                "argument %s: invalid choice: %r (choose from %s)"
                % (name, text, ", ".join(map(repr, kind)))
            )
        return text
    try:
        return kind(text)
    except ValueError:
        raise UsageError(
            "argument %s: invalid %s value: %r" % (name, kind.__name__, text)
        ) from None


def _refuse_attached(name: str, attached: str | None) -> None:
    if attached is not None:
        raise UsageError(
            "argument %s: ignored explicit argument %r" % (name, attached)
        )


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The fields of one command line, or None when it asks for help.

    Grammar: the command comes first, then options in any order, each
    as ``--opt value`` or ``--opt=value`` (a flag takes no value); a long
    option may be shortened to a unique prefix, and the last of repeated
    options wins.  ``-h`` or ``--help`` asks for help unless an error comes
    before it.  Raises ``UsageError`` otherwise.
    """
    extras = []
    for i, token in enumerate(argv):
        # before the command, help is the only option
        option = None if token == "--" else _option(token, HELP)
        if option is None:
            break
        if option[0]:
            _refuse_attached(*option)
            return None
        extras.append(token)
    else:
        raise UsageError("the following arguments are required: command")
    command, rest = argv[i], argv[i + 1 :]
    if command not in COMMANDS:
        raise UsageError(
            "argument command: invalid choice: %r (choose from %s)"
            % (command, ", ".join(map(repr, COMMANDS)))
        )
    # the grammar has no '--' separator: it and all that follows are stray
    end = rest.index("--") if "--" in rest else len(rest)
    readings = [_option(token, (*HELP, *OPTIONS)) for token in rest[:end]]
    extras += rest[end:]
    values = {name: spec[1] for name, spec in OPTIONS.items()}
    j = 0
    while j < end:
        token, option = rest[j], readings[j]
        j += 1
        if option is None or not option[0]:
            extras.append(token)
            continue
        name, attached = option
        kind = OPTIONS[name][0] if name in OPTIONS else None
        if kind is None:
            _refuse_attached(name, attached)
            if name in HELP:
                return None
            values[name] = True
            continue
        if attached is None:
            if j == end or readings[j] is not None:
                raise UsageError("argument %s: expected one argument" % name)
            attached = rest[j]
            j += 1
        values[name] = _value(name, kind, attached)
    if values["--input"] is None:
        raise UsageError("the following arguments are required: --input")
    if extras:
        raise UsageError("unrecognized arguments: %s" % " ".join(extras))
    fields = {name[2:].replace("-", "_"): value for name, value in values.items()}
    return SimpleNamespace(command=command, **fields)


def _help() -> str:
    lines = [USAGE, "", DESCRIPTION, "", "commands:"]
    lines += ["  %-17s %s" % row for row in COMMANDS.items()]
    lines += ["", "options:", "  %s\n      show this help" % ", ".join(HELP)]
    for name, (kind, default, text) in OPTIONS.items():
        if isinstance(kind, tuple):
            name += " {%s}" % ",".join(kind)
        elif kind is not None:
            name += " " + METAVAR[kind]
        default = " (default: %s)" % default if default else ""
        lines.append("  %s\n      %s%s" % (name, text, default))
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` by default); returns the
    exit code."""
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        _diagnose("%s\nbasisdetect: error: %s" % (USAGE, exc))
        return 2
    try:
        if args is None:
            _write(_help())
            return 0
        return run(args)
    except _OutputError as exc:
        if sys.stdout is not None:
            # point fd 1 at devnull, so that the flush at exit cannot fail
            # again on what is left in the buffer
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        _diagnose("output error: %s" % exc)
        return 2


def entry() -> NoReturn:
    """The process entry, of ``python -m basisdetect`` and of the
    ``basisdetect`` script: run ``main`` on ``sys.argv[1:]``, then exit
    with its code.

    The heap is frozen (``gc.freeze``) before the exit, so the collections
    of interpreter finalization skip the modules, classes and functions
    that the finished run leaves; that saves about 5 ms per process.  The
    exit is otherwise the ordinary ``SystemExit``: atexit handlers and the
    flush of the standard streams still run, and a caller that runs the
    module through ``runpy`` (``python -m cProfile -m basisdetect``) goes
    on as before.  ``main`` itself leaves the collector alone.
    """
    code = main()
    gc.freeze()
    sys.exit(code)
