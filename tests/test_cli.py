"""CLI tests: the system-file grammar, commands, formats and exit codes."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from basisdetect import detect, extract_weight_vectors, is_sagbi_subduction, rank, sagbi
from basisdetect import Polynomial, cli
from basisdetect.cli import MAX_TERMS, ParseError, main, parse_system
from basisdetect.sagbi import SubductionLimitError

import cli_oracle
import systems

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_system(tmp_path, polys, name="system.txt"):
    path = tmp_path / name
    path.write_text(systems.system_file_text(polys))
    return str(path)


# ---------------------------------------------------------------------------
# grammar


def test_parse_system_basic():
    text = "ring: x, y\npolys:\nx^2 + y^2 - 1\n2*x*y - 1\n"
    polys = parse_system(text)
    assert polys[0].ring.variables == ("x", "y")
    assert len(polys) == 2
    assert polys[0].terms == {(2, 0): 1, (0, 2): 1, (0, 0): -1}
    assert polys[1].terms == {(1, 1): 2, (0, 0): -1}


def test_parse_system_single_variable():
    polys = parse_system("ring: x\npolys:\nx\n")
    assert polys[0].terms == {(1,): 1}


def test_parse_system_binomial_support():
    polys = parse_system("ring: x, y\npolys:\nx*y - y^2\n")
    assert set(polys[0].terms) == {(1, 1), (0, 2)}


def test_parse_system_options_and_comments():
    text = (
        "# generated example\n"
        "ring: x, y\n"
        "name: demo  # trailing comment\n"
        "polys:\n"
        "\n"
        "x + y  # tail comment\n"
    )
    # the header line "name: demo" is accepted and ignored
    polys = parse_system(text)
    assert polys == parse_system("ring: x, y\npolys:\nx + y\n")


def test_parse_rational_literal_and_parens():
    polys = parse_system("ring: x, y\npolys:\n1/2*(x + y)^2\n")
    from fractions import Fraction

    assert polys[0].terms == {
        (2, 0): Fraction(1, 2),
        (1, 1): Fraction(1),
        (0, 2): Fraction(1, 2),
    }


def test_parse_unary_minus():
    polys = parse_system("ring: x\npolys:\n-x^2 + 3\n")
    assert polys[0].terms == {(2,): -1, (0,): 3}


@pytest.mark.parametrize(
    "expression, terms",
    [
        ("-x^2", {(2, 0): -1}),
        ("-x*y", {(1, 1): -1}),
        ("2*-x", {(1, 0): -2}),
        ("x - -y", {(1, 0): 1, (0, 1): 1}),
        ("--x", {(1, 0): 1}),
    ],
)
def test_parse_unary_minus_negates_its_factor(expression, terms):
    # '-' before a factor negates that factor, at the start or anywhere else
    polys = parse_system("ring: x, y\npolys:\n%s\n" % expression)
    assert polys[0].terms == terms


@pytest.mark.parametrize("expression", ["-", "-+x"])
def test_parse_error_after_unary_minus(expression):
    # the factor after '-' is missing: the error points at what follows it
    with pytest.raises(ParseError, match="expected a variable") as err:
        parse_system("ring: x, y\npolys:\n%s\n" % expression)
    assert (err.value.line, err.value.column) == (3, 2)


def test_parse_error_undeclared_variable():
    with pytest.raises(ParseError) as err:
        parse_system("ring: x\npolys:\nx + y\n")
    assert err.value.line == 3
    assert err.value.column == 5


def test_parse_error_implicit_multiplication():
    with pytest.raises(ParseError) as err:
        parse_system("ring: x\npolys:\n2x\n")
    assert err.value.line == 3


def test_parse_error_negative_exponent():
    with pytest.raises(ParseError) as err:
        parse_system("ring: x\npolys:\nx^-2\n")
    assert "exponent" in str(err.value)


def test_parse_error_missing_ring():
    with pytest.raises(ParseError):
        parse_system("polys:\nx\n")


def test_parse_error_no_polynomials():
    with pytest.raises(ParseError):
        parse_system("ring: x\npolys:\n")


def test_parse_error_zero_polynomial():
    with pytest.raises(ParseError) as err:
        parse_system("ring: x\npolys:\nx - x\n")
    assert "zero" in str(err.value)


def test_parse_error_unbalanced_parens():
    with pytest.raises(ParseError):
        parse_system("ring: x\npolys:\n(x + 1\n")


def test_parse_error_bad_character():
    with pytest.raises(ParseError) as err:
        parse_system("ring: x\npolys:\nx % 2\n")
    assert err.value.column == 3


def test_parse_error_duplicate_ring():
    with pytest.raises(ParseError):
        parse_system("ring: x\nring: y\npolys:\nx\n")


def test_parse_error_bad_variable_name():
    with pytest.raises(ParseError):
        parse_system("ring: x, 2y\npolys:\nx\n")


@pytest.mark.parametrize(
    "expression, column",
    [
        ("x + %s", 5),  # coefficient
        ("1/%s*x", 3),  # denominator
        ("x^%s", 3),  # exponent
    ],
)
def test_parse_error_integer_literal_too_long(expression, column):
    # int() refuses strings of more digits than the interpreter's limit
    # (4300 by default); the literal is then a parse error at its position
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        text = "ring: x\npolys:\n%s\n" % (expression % ("1" * 4301))
        with pytest.raises(ParseError, match="of 4301 digits is too long") as err:
            parse_system(text)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (err.value.line, err.value.column) == (3, column)


# ---------------------------------------------------------------------------
# commands


def _parse_text_classes(out):
    classes = []
    for line in out.splitlines():
        if line.startswith("weight "):
            weight_part, leads_part = line.split(": leads ")
            weight = tuple(json.loads(weight_part[len("weight "):]))
            classes.append((weight, tuple(leads_part.split(", "))))
    return classes


def test_detect_gb_twisted_cubic(tmp_path, capsys):
    path = write_system(tmp_path, systems.twisted_cubic())
    code, out, err = run_cli(capsys, "detect-gb", "--input", path)
    assert code == 0
    assert out.startswith("found 4 classes\n")
    assert len(_parse_text_classes(out)) == 4


def test_detect_sagbi_empty_exit_code(tmp_path, capsys):
    path = write_system(tmp_path, systems.non_sagbi_trio())
    code, out, err = run_cli(capsys, "detect-sagbi", "--input", path)
    assert code == 1
    assert out.startswith("found 0 classes")


def test_classes_two_cone(tmp_path, capsys):
    path = write_system(tmp_path, systems.two_cone_example())
    code, out, err = run_cli(capsys, "classes", "--input", path)
    assert code == 0
    assert out.startswith("found 2 classes\n")


def test_universal_sagbi_true(tmp_path, capsys):
    path = write_system(tmp_path, systems.elementary_symmetric())
    code, out, err = run_cli(capsys, "universal-sagbi", "--input", path)
    assert code == 0
    assert "universal: true" in out


def test_universal_gb_false_with_counterexample(tmp_path, capsys):
    path = write_system(tmp_path, systems.unit_circle_pair())
    code, out, err = run_cli(
        capsys, "universal-gb", "--input", path, "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["universal"] is False
    assert report["counterexample"]["is_basis"] is False
    assert report["counterexample"]["weight"]


def test_json_and_text_encode_identical_classes(tmp_path, capsys):
    path = write_system(tmp_path, systems.twisted_cubic())
    code, text_out, _ = run_cli(capsys, "detect-gb", "--input", path)
    code2, json_out, _ = run_cli(
        capsys, "detect-gb", "--input", path, "--format", "json"
    )
    assert code == code2 == 0
    report = json.loads(json_out)
    text_classes = _parse_text_classes(text_out)
    json_classes = [
        (tuple(entry["weight"]), tuple(entry["leading_monomials"]))
        for entry in report["classes"]
    ]
    assert text_classes == json_classes
    assert all(entry["is_basis"] for entry in report["classes"])


def test_homogenize_t_flag(tmp_path, capsys):
    path = write_system(tmp_path, systems.two_cone_example())
    code, out, _ = run_cli(
        capsys, "classes", "--input", path, "--format", "json", "--homogenize-t"
    )
    assert code == 0
    report = json.loads(out)
    assert report["variables"] == ["t", "x", "y"]


def test_rank_nicer_text(tmp_path, capsys):
    path = write_system(tmp_path, systems.two_cone_example())
    code, out, _ = run_cli(capsys, "rank", "--input", path)
    assert code == 0
    assert out.startswith("ranked 2 classes in 2 groups by nicer\n")
    assert "group 1 (dim 1, degree 2):" in out


def test_rank_preferable_json(tmp_path, capsys):
    path = write_system(tmp_path, systems.two_cone_example())
    code, out, _ = run_cli(
        capsys,
        "rank",
        "--input",
        path,
        "--criterion",
        "preferable",
        "--hilbert-bound",
        "6",
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["criterion"] == "preferable"
    assert len(report["groups"]) == 2
    assert report["groups"][0]["hilbert_vector"] >= report["groups"][1][
        "hilbert_vector"
    ]
    assert "bound_warning" in report


# characters whose JSON form json.dumps escapes in some way, with plain
# ones, and strings and ints of every kind a report could hold
JSON_CHARACTERS = 'ab "\\/\b\f\n\r\t\x00\x1f\x7f~\xe9\u2028\ud800\U0001f600'
JSON_INTS = (0, 1, -1, 7, -42, 2**63, -(2**70), 10**40)


def _report_value(rng: random.Random, depth: int):
    """A random value of the types a report holds: dicts with str keys,
    lists, str, int, bool and None; containers may be empty."""
    kind = rng.randrange(7 if depth < 4 else 5)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.choice(JSON_INTS + (rng.randrange(-999, 1000),))
    if kind in (2, 3, 4):
        return "".join(rng.choices(JSON_CHARACTERS, k=rng.randrange(6)))
    if kind == 5:
        return [_report_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {
        "".join(rng.choices(JSON_CHARACTERS, k=rng.randrange(4))):
            _report_value(rng, depth + 1)
        for _ in range(rng.randrange(4))
    }


def test_json_writer_matches_json_dumps():
    rng = random.Random(20240)
    for _ in range(2000):
        value = _report_value(rng, 0)
        assert cli._json(value) == json.dumps(value, indent=2), value
    # a bool is not written as the int it also is
    assert cli._json([True, 1, False, 0]) == json.dumps([True, 1, False, 0], indent=2)


def test_json_report_is_byte_identical_to_json_dumps(tmp_path, capsys):
    # a report with nested groups, a Hilbert vector and a bound warning
    path = write_system(tmp_path, systems.two_cone_example())
    code, out, _ = run_cli(
        capsys, "rank", "--input", path, "--criterion", "preferable",
        "--format", "json",
    )
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_detect_sagbi_hilbert_method(tmp_path, capsys):
    path = write_system(tmp_path, systems.two_cone_example())
    code, out, _ = run_cli(
        capsys,
        "detect-sagbi",
        "--input",
        path,
        "--method",
        "hilbert",
        "--hilbert-bound",
        "6",
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["method"] == "hilbert"
    assert len(report["classes"]) == 1


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO("ring: x, y\npolys:\nx*y\n")
    )
    code, out, _ = run_cli(capsys, "classes", "--input", "-")
    assert code == 0
    assert out.startswith("found 1 classes")


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("ring: x\npolys:\nx + y\n")
    code, out, err = run_cli(capsys, "detect-gb", "--input", str(path))
    assert code == 2
    assert out == ""
    assert "input error" in err and "line 3" in err


def test_missing_file_exit_code(capsys):
    code, out, err = run_cli(capsys, "detect-gb", "--input", "/nonexistent/f")
    assert code == 2
    assert "input error" in err


def test_non_utf8_file_exit_code(tmp_path, capsys):
    # exit 1 means "no classes found", so an undecodable file must not
    # escape as a traceback
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"ring: x\npolys:\n\xff\n")
    code, out, err = run_cli(capsys, "detect-gb", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("input error: ") and "utf-8" in err


def test_non_utf8_stdin_is_a_parse_error(capsys, monkeypatch):
    raw = io.BytesIO(b"ring: x\npolys:\n\xff\n")
    stdin = io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run_cli(capsys, "detect-gb", "--input", "-")
    assert code == 2
    assert out == ""
    assert err.startswith("input error: line 3, column 1: unexpected character")


def test_undecodable_stdin_exit_code(capsys, monkeypatch):
    # a strictly decoding stdin fails in read(); exit 1 means "no classes
    # found", so the error must not escape as a traceback
    raw = io.BytesIO(b"ring: x\npolys:\nx\xff\n")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(raw, encoding="utf-8"))
    code, out, err = run_cli(capsys, "classes", "--input", "-")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("input error: ") and "utf-8" in err


def test_homogenize_collision_exit_code(tmp_path, capsys):
    path = tmp_path / "t.txt"
    path.write_text("ring: t, x\npolys:\nt*x\n")
    code, out, err = run_cli(
        capsys, "classes", "--input", str(path), "--homogenize-t"
    )
    assert code == 2


def test_jobs_determinism(tmp_path, capsys):
    path = write_system(tmp_path, systems.twisted_cubic())
    outputs = []
    for jobs in ("1", "4"):
        for fmt in ("text", "json"):
            code, out, _ = run_cli(
                capsys,
                "detect-gb",
                "--input",
                path,
                "--jobs",
                jobs,
                "--format",
                fmt,
            )
            assert code == 0
            outputs.append(out)
    assert outputs[0] == outputs[2]
    assert outputs[1] == outputs[3]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected(tmp_path, capsys, jobs):
    path = write_system(tmp_path, systems.twisted_cubic())
    code, out, err = run_cli(
        capsys, "detect-gb", "--input", path, "--jobs", jobs
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--jobs" in err


@pytest.mark.parametrize("bound", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ("rank", "--criterion", "preferable"),
        ("detect-sagbi", "--method", "hilbert"),
    ],
)
def test_hilbert_bound_below_one_rejected(
    tmp_path, capsys, monkeypatch, argv, bound
):
    def no_parsing(text):
        raise AssertionError("system parsed before the option check")

    monkeypatch.setattr(cli, "parse_system", no_parsing)
    path = write_system(tmp_path, systems.non_sagbi_trio())
    code, out, err = run_cli(
        capsys, *argv, "--input", path, "--hilbert-bound", bound
    )
    assert code == 2
    assert out == ""
    assert err == "option error: --hilbert-bound must be at least 1, got %s\n" % bound


@pytest.mark.parametrize(
    "jobs, nclasses, cpus, expected",
    [
        (5000, 210, 2, 2),
        (4, 1, 8, 1),
        (1, 100, 8, 1),
        (8, 5, 16, 5),
        (3, 10, None, 1),
        (2, 0, 4, 1),
    ],
)
def test_pool_size_clamped_to_cpus_and_classes(jobs, nclasses, cpus, expected):
    assert detect._pool_size(jobs, nclasses, cpus) == expected


def test_map_classes_runs_serially_when_clamped_to_one(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("no process pool expected")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(detect.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(detect, "extract_weight_vectors", lambda polys: [1, 2, 3])
    monkeypatch.setattr(detect, "_check_gb", lambda polys, cls: cls > 1)
    checked = detect.verdicts(systems.twisted_cubic(), "buchberger", jobs=5000)
    assert [ok for _, ok in checked] == [
        False,
        True,
        True,
    ]


@pytest.mark.parametrize(
    "command, check, error",
    [
        ("detect-sagbi", "is_sagbi_subduction", SubductionLimitError("cap hit")),
        ("universal-sagbi", "is_sagbi_subduction", SubductionLimitError("cap")),
        ("detect-gb", "_check_gb", RecursionError("maximum recursion depth")),
        ("universal-gb", "_check_gb", RecursionError("maximum recursion depth")),
    ],
)
def test_limit_failures_exit_2_with_one_line(
    tmp_path, capsys, monkeypatch, command, check, error
):
    def failing(*args, **kwargs):  # the subduction check takes ``shared``
        raise error

    # verdicts binds the subduction check from sagbi, the Groebner one
    # from detect
    monkeypatch.setattr(detect if check == "_check_gb" else sagbi, check, failing)
    path = write_system(tmp_path, systems.twisted_cubic())
    code, out, err = run_cli(capsys, command, "--input", path)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("limit error: ")


@pytest.mark.parametrize(
    "module, name, argv",
    [
        (rank, "rank_orders", ("rank", "--criterion", "preferable")),
        (rank, "rank_orders", ("rank", "--criterion", "nicer")),
        (detect, "verdicts", ("detect-gb",)),
        (detect, "verdicts", ("universal-sagbi",)),
    ],
    ids=["rank-preferable", "rank-nicer", "detect-gb", "universal-sagbi"],
)
def test_out_of_memory_exits_2_with_one_line(
    tmp_path, capsys, monkeypatch, module, name, argv
):
    # exit code 1 would read as "no classes found" for a detect command
    def failing(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(module, name, failing)
    path = write_system(tmp_path, systems.twisted_cubic())
    code, out, err = run_cli(capsys, *argv, "--input", path)
    assert code == 2
    assert out == ""
    assert err == "limit error: out of memory\n"


def test_subduction_cap_hit_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    # the lift of y3 - y1^2 is y + 1, which takes two subduction steps
    path = tmp_path / "system.txt"
    path.write_text("ring: x, y\npolys:\nx\ny\nx^2 + y + 1\n")
    code, _, _ = run_cli(capsys, "detect-sagbi", "--input", str(path))
    assert code == 0
    monkeypatch.setattr(sagbi, "SUBDUCTION_CAP", 1)
    code, out, err = run_cli(capsys, "detect-sagbi", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err == "limit error: subduction did not finish within 1 steps\n"


def test_universal_stops_at_first_failing_class(tmp_path, capsys, monkeypatch):
    F = systems.non_sagbi_trio()
    classes = extract_weight_vectors(F)
    first_failure = next(
        i for i, cls in enumerate(classes) if not is_sagbi_subduction(F, cls)
    )
    assert first_failure + 1 < len(classes)
    checked = []

    def counting(polys, cls, **kwargs):
        checked.append(cls)
        return is_sagbi_subduction(polys, cls, **kwargs)

    monkeypatch.setattr(sagbi, "is_sagbi_subduction", counting)
    path = write_system(tmp_path, F)
    reports = []
    for jobs in ("1", "2"):
        code, out, _ = run_cli(
            capsys, "universal-sagbi", "--input", path, "--jobs", jobs,
            "--format", "json",
        )
        assert code == 0
        reports.append(json.loads(out))
        if jobs == "1":
            assert checked == classes[: first_failure + 1]
            # the pool pickles the check by its qualified name, which a
            # local stand-in does not have
            monkeypatch.undo()
    assert reports[0] == reports[1]
    assert reports[0]["universal"] is False
    assert reports[0]["counterexample"]["weight"] == list(
        classes[first_failure].weight
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("rank", "--criterion", "preferable"),
        ("detect-sagbi", "--method", "hilbert"),
    ],
)
def test_hilbert_rejects_non_homogeneous_before_enumeration(
    tmp_path, capsys, monkeypatch, argv
):
    def no_enumeration(polys):
        raise AssertionError("classes enumerated before the homogeneity check")

    monkeypatch.setattr(detect, "extract_weight_vectors", no_enumeration)
    monkeypatch.setattr(rank, "extract_weight_vectors", no_enumeration)
    # t*f is homogeneous only when f is: x^2 + y^2 - 1 is not
    path = write_system(tmp_path, systems.unit_circle_pair())
    code, out, err = run_cli(capsys, *argv, "--input", path, "--homogenize-t")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("input error: generator 1 is not homogeneous")
    assert "homogenize" not in err


@pytest.mark.parametrize(
    "expression", ["(x+y)^100000", "(x+y)^3000", "(a+b+c+d+e+f)^40"]
)
def test_oversized_expressions_exit_2_at_once(capsys, monkeypatch, expression):
    text = "ring: a, b, c, d, e, f, x, y\npolys:\n%s\n" % expression
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "classes", "--input", "-")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("input error: line 3, column ")


def test_power_stays_within_term_cap(monkeypatch):
    # (a+...+f)^9 is the largest accepted power of six terms: its last
    # multiplication pairs 1287 * 6 terms, while squaring f^4 would pair
    # 126 * 126 > MAX_TERMS
    pairs = []
    multiply = Polynomial.__mul__

    def counting(self, other):
        pairs.append(len(self.terms) * len(other.terms))
        return multiply(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    polys = parse_system("ring: a, b, c, d, e, f\npolys:\n(a+b+c+d+e+f)^9\n")
    assert len(polys[0].terms) == 2002
    assert max(pairs) <= MAX_TERMS
    with pytest.raises(ParseError, match="column 14"):
        parse_system("ring: a, b, c, d, e, f\npolys:\n(a+b+c+d+e+f)^10\n")


def test_other_warnings_shown_when_the_run_fails(capsys, monkeypatch, tmp_path):
    def warn_then_fail(polys):
        warnings.warn("enumeration note", UserWarning)
        raise ValueError("bad system")

    monkeypatch.setattr(cli, "extract_weight_vectors", warn_then_fail)
    path = write_system(tmp_path, systems.twisted_cubic())
    with pytest.warns(UserWarning, match="enumeration note"):
        code, out, err = run_cli(capsys, "classes", "--input", path)
    assert code == 2
    assert err == "input error: bad system\n"


# ---------------------------------------------------------------------------
# the command line

OPTION_SPELLINGS = {
    "--input": ("--input", "--inp", "--i"),
    "--format": ("--format", "--form", "--f"),
    "--method": ("--method", "--me", "--m"),
    "--hilbert-bound": ("--hilbert-bound", "--hilbert", "--hi"),
    "--homogenize-t": ("--homogenize-t", "--homog", "--ho"),
    "--criterion": ("--criterion", "--crit", "--c"),
    "--jobs": ("--jobs", "--jo", "--j"),
}
VALUES = {
    "--input": ("f.sys", "-", "a b", "-a b", "-x", "--input", "", "-3"),
    "--format": ("text", "json", "xml", "TEXT", "js"),
    "--method": ("subduction", "hilbert", "nicer"),
    "--hilbert-bound": ("4", "-3", "0", " 7", "+2", "1_0", "x", "1.5", "-1.5", ""),
    "--homogenize-t": ("1", ""),
    "--criterion": ("preferable", "nicer", "hilbert"),
    "--jobs": ("1", "2", "-3", "x", "", "2.0"),
}
UNKNOWN = ("--bogus", "--inputs", "---input", "-x", "-i", "--input-file")
# ambiguous, or help with text attached
MALFORMED = ("--h", "--=x", "-hx", "-h=1", "--help=")
STRAY = ("stray", "classes", "-", "-5", "a b", "--in put")
BAD_COMMANDS = ("bogus", "detect", "", "-3", "-")


def _random_token_group(rng: random.Random) -> list[str]:
    """One option with its value, a stray or unknown token, or help."""
    roll = rng.random()
    if roll < 0.04:
        return [rng.choice(("-h", "--help", "--he", "--hel"))]
    if roll < 0.12:
        return [rng.choice(UNKNOWN + MALFORMED + STRAY)]
    name = rng.choice(list(OPTION_SPELLINGS))
    spelling = rng.choice(OPTION_SPELLINGS[name])
    value = rng.choice(VALUES[name])
    if name == "--homogenize-t" and rng.random() < 0.8:
        return [spelling]
    shape = rng.random()
    if shape < 0.3:
        return ["%s=%s" % (spelling, value)]
    if shape < 0.35:
        return [spelling]
    return [spelling, value]


def random_argv(rng: random.Random) -> list[str]:
    argv = []
    if rng.random() < 0.05:
        argv.append(rng.choice(UNKNOWN + MALFORMED + ("-h",)))
    if rng.random() < 0.9:
        command = list(cli.COMMANDS) + list(BAD_COMMANDS)
        argv.append(rng.choice(command[:6] * 4 + command[6:]))
    groups = [_random_token_group(rng) for _ in range(rng.randint(0, 5))]
    if rng.random() < 0.8:
        groups.append(["--input", "system.sys"])
    rng.shuffle(groups)
    return argv + [token for group in groups for token in group]


def oracle_outcome(parser, argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return {0: "help", 2: "error"}[exc.code]


def parser_outcome(argv):
    try:
        args = cli.parse_args(argv)
    except cli.UsageError:
        return "error"
    return "help" if args is None else vars(args)


def test_parser_agrees_with_argparse_oracle(capsys):
    parser = cli_oracle.build_parser()
    rng = random.Random(20261019)
    seen = {"help": 0, "error": 0, "accepted": 0}
    for _ in range(600):
        argv = random_argv(rng)
        expected = oracle_outcome(parser, argv)
        assert parser_outcome(argv) == expected, argv
        seen[expected if isinstance(expected, str) else "accepted"] += 1
        if expected == "error":
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert err.startswith("usage: basisdetect")
            assert err.endswith("\n") and err.count("\n") == 2
            assert "\nbasisdetect: error: " in err
    # every outcome is well represented
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize(
    "argv, fields",
    [
        (
            ["classes", "--input", "a", "--input", "b", "--jobs=3", "--jobs", "4"],
            {"input": "b", "jobs": 4},
        ),
        (
            ["rank", "--inp=a=b", "--crit", "preferable", "--ho", "--homogenize-t"],
            {"input": "a=b", "criterion": "preferable", "homogenize_t": True},
        ),
        (
            ["detect-sagbi", "--m=hilbert", "--hi", "-3", "--input", "-"],
            {"input": "-", "method": "hilbert", "hilbert_bound": -3},
        ),
    ],
)
def test_parser_reads_prefixes_repeats_and_attached_values(argv, fields):
    defaults = {
        "command": argv[0],
        "format": "text",
        "method": "subduction",
        "hilbert_bound": None,
        "homogenize_t": False,
        "criterion": "nicer",
        "jobs": 1,
    }
    assert vars(cli.parse_args(argv)) == {**defaults, **fields}


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["--help"], ["--he"], ["rank", "-h"], ["classes", "--bogus", "--help"]],
)
def test_help_exits_0_and_lists_every_command_and_option(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: basisdetect")
    for name in (*cli.COMMANDS, *cli.OPTIONS):
        assert name in out


def test_double_dash_is_a_usage_error(capsys, tmp_path):
    path = write_system(tmp_path, systems.twisted_cubic())
    for argv in (["--", "classes"], ["classes", "--input", path, "--"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("usage: basisdetect")


def test_main_reads_sys_argv_by_default(tmp_path, capsys, monkeypatch):
    path = write_system(tmp_path, systems.two_cone_example())
    monkeypatch.setattr("sys.argv", ["basisdetect", "classes", "--input", path])
    assert main() == 0
    assert capsys.readouterr().out.startswith("found 2 classes\n")


def test_byte_order_mark_is_dropped(tmp_path, capsys, monkeypatch):
    text = systems.system_file_text(systems.twisted_cubic())
    plain = tmp_path / "plain.sys"
    plain.write_text(text, encoding="utf-8")
    marked = tmp_path / "marked.sys"
    marked.write_text("\ufeff" + text, encoding="utf-8")
    argv = ("detect-gb", "--format", "json", "--input")
    expected = run_cli(capsys, *argv, str(plain))
    assert expected[0] == 0
    assert run_cli(capsys, *argv, str(marked)) == expected
    monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + text))
    assert run_cli(capsys, *argv, "-") == expected


def test_closed_stdout_is_an_output_error():
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
    child = subprocess.Popen(
        [sys.executable, "-m", "basisdetect", "classes", "--input", "-",
         "--format", "json"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    # the reader is gone before the report is written
    child.stdout.close()
    _, err = child.communicate(b"ring: x, y\npolys:\nx*y\n", timeout=60)
    assert child.returncode == 2
    assert err.decode().startswith("output error: ")
    assert err.count(b"\n") == 1



@pytest.mark.parametrize("argv", [["classes", "--input", "-"], ["--help"]])
@pytest.mark.parametrize(
    "redirect, reason",
    [
        # the write to the buffer succeeds and the flush fails
        (">/dev/full", "[Errno 28] No space left on device"),
        # started with fd 1 closed, the interpreter has no sys.stdout
        (">&-", "stdout is closed"),
    ],
    ids=["full", "closed"],
)
def test_unwritable_stdout_is_an_output_error(argv, redirect, reason):
    if redirect == ">/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    done = subprocess.run(
        ["sh", "-c", 'exec "$@" ' + redirect, "sh", sys.executable, "-m",
         "basisdetect", *argv],
        input=b"ring: x, y\npolys:\nx*y\n",
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert done.returncode == 2
    assert done.stderr == b"output error: %s\n" % reason.encode()
