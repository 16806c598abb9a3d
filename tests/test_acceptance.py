"""Acceptance criteria, one test per criterion.

Every criterion drives the CLI (the deliverable surface) and checks the
pinned counts and class identities; class identity is always judged by the
leading-monomial tuple, never by the printed representative weight.
Each test prints one PASS/FAIL line (visible with -v via the test name,
or with -s as plain output).  Long-running cases carry the 'slow' marker.
"""

import json
import time
from pathlib import Path

import pytest

from basisdetect import TermOrder, leading_tuple
from basisdetect.cli import main

import systems

SYSTEMS_DIR = Path(__file__).resolve().parent.parent / "systems"


def _run_json(capsys, *argv):
    code = main(list(argv) + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def _write(tmp_path, polys, name):
    path = tmp_path / name
    path.write_text(systems.system_file_text(polys))
    return str(path)


def _leads_strings(polys, weight):
    ring = polys[0].ring
    return [
        ring.format_monomial(e)
        for e in leading_tuple(polys, TermOrder(weight))
    ]


def _finish(number, ok, detail):
    print("criterion %d: %s (%s)" % (number, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_criterion_01_twisted_cubic_gb(tmp_path, capsys):
    start = time.monotonic()
    polys = systems.twisted_cubic()
    path = _write(tmp_path, polys, "twisted_cubic.txt")
    code, report = _run_json(capsys, "detect-gb", "--input", path)
    elapsed = time.monotonic() - start
    found = [tuple(c["leading_monomials"]) for c in report["classes"]]
    expected_present = all(
        tuple(_leads_strings(polys, w)) in found
        for w in [(6, 4, 4, 6), (6, 6, 3, 5), (5, 3, 6, 6), (3, 6, 6, 3)]
    )
    ok = (
        code == 0
        and len(found) == 4
        and expected_present
        and elapsed < 10
    )
    _finish(1, ok, "4 classes incl. the four published weights, %.1fs" % elapsed)


def test_criterion_02_circle_pair_no_gb(tmp_path, capsys):
    start = time.monotonic()
    path = _write(tmp_path, systems.unit_circle_pair(), "circle.txt")
    code, report = _run_json(capsys, "detect-gb", "--input", path)
    elapsed = time.monotonic() - start
    ok = code == 1 and report["classes"] == [] and elapsed < 5
    _finish(2, ok, "0 classes, exit 1, %.1fs" % elapsed)


def test_criterion_03_three_surfaces_single_class(tmp_path, capsys):
    start = time.monotonic()
    polys = systems.three_surfaces()
    path = _write(tmp_path, polys, "surfaces.txt")
    code, report = _run_json(capsys, "detect-gb", "--input", path)
    elapsed = time.monotonic() - start
    expected = _leads_strings(polys, (12, 15, 27))
    ok = (
        code == 0
        and len(report["classes"]) == 1
        and report["classes"][0]["leading_monomials"] == expected
        and elapsed < 30
    )
    _finish(3, ok, "1 class matching weight (12,15,27), %.1fs" % elapsed)


def test_criterion_04_sagbi_trio(tmp_path, capsys):
    start = time.monotonic()
    polys = systems.sagbi_trio()
    path = _write(tmp_path, polys, "trio.txt")
    code, report = _run_json(capsys, "detect-sagbi", "--input", path)
    elapsed = time.monotonic() - start
    ok = code == 0 and len(report["classes"]) == 1 and elapsed < 10
    if ok:
        entry = report["classes"][0]
        wx, wy = entry["weight"]
        ok = wy > wx and entry["leading_monomials"] == _leads_strings(
            polys, (1, 2)
        )
    _finish(4, ok, "single class, w_y > w_x, certified by (1,2), %.1fs" % elapsed)


def test_criterion_05_non_sagbi_trio(tmp_path, capsys):
    start = time.monotonic()
    path = _write(tmp_path, systems.non_sagbi_trio(), "nontrio.txt")
    code, report = _run_json(capsys, "detect-sagbi", "--input", path)
    elapsed = time.monotonic() - start
    ok = code == 1 and report["classes"] == [] and elapsed < 10
    _finish(5, ok, "0 classes, exit 1, %.1fs" % elapsed)


def test_criterion_06_elementary_symmetric(tmp_path, capsys):
    start = time.monotonic()
    path = _write(tmp_path, systems.elementary_symmetric(), "elemsym.txt")
    code1, classes_report = _run_json(capsys, "classes", "--input", path)
    code2, sagbi_report = _run_json(capsys, "detect-sagbi", "--input", path)
    code3, universal_report = _run_json(capsys, "universal-sagbi", "--input", path)
    elapsed = time.monotonic() - start
    ok = (
        code1 == 0
        and code2 == 0
        and code3 == 0
        and len(classes_report["classes"]) == 6
        and len(sagbi_report["classes"]) == 6
        and universal_report["universal"] is True
        and elapsed < 30
    )
    _finish(6, ok, "6 classes, all SAGBI, universal, %.1fs" % elapsed)


def test_criterion_07_grassmannian_2_4(tmp_path, capsys):
    start = time.monotonic()
    path = _write(tmp_path, systems.grassmannian_2_4(), "gr24.txt")
    code1, gb = _run_json(capsys, "detect-gb", "--input", path)
    code2, sagbi = _run_json(capsys, "detect-sagbi", "--input", path)
    code3, ugb = _run_json(capsys, "universal-gb", "--input", path)
    code4, usagbi = _run_json(capsys, "universal-sagbi", "--input", path)
    elapsed = time.monotonic() - start
    ok = (
        (code1, code2, code3, code4) == (0, 0, 0, 0)
        and len(gb["classes"]) == 24
        and len(sagbi["classes"]) == 24
        and ugb["universal"] is True
        and usagbi["universal"] is True
        and elapsed < 60
    )
    _finish(7, ok, "24 classes, universal GB and SAGBI, %.1fs" % elapsed)


@pytest.mark.slow
def test_criterion_08_minors_2x2_of_3x3(tmp_path, capsys):
    start = time.monotonic()
    path = _write(tmp_path, systems.minors_2x2_of_3x3(), "minors.txt")
    code1, sagbi = _run_json(capsys, "detect-sagbi", "--input", path)
    code2, gb = _run_json(capsys, "detect-gb", "--input", path)
    elapsed = time.monotonic() - start
    ok = (
        code1 == 0
        and code2 == 0
        and len(sagbi["classes"]) == 6
        and len(gb["classes"]) == 96
        and elapsed < 60
    )
    _finish(8, ok, "6 SAGBI classes, 96 GB classes, %.1fs" % elapsed)


def test_criterion_09_gaussian_ci(tmp_path, capsys):
    start = time.monotonic()
    polys = systems.gaussian_ci()
    path = _write(tmp_path, polys, "gaussian.txt")
    code, report = _run_json(capsys, "detect-gb", "--input", path)
    elapsed = time.monotonic() - start
    expected = _leads_strings(polys, (2, 3, 2, 3))
    ok = (
        code == 0
        and any(c["leading_monomials"] == expected for c in report["classes"])
        and elapsed < 5
    )
    _finish(9, ok, "class of weight (2,3,2,3) detected, %.1fs" % elapsed)


def test_criterion_10_two_cone_example(tmp_path, capsys):
    start = time.monotonic()
    polys = systems.two_cone_example()
    path = _write(tmp_path, polys, "twocone.txt")
    code1, classes_report = _run_json(capsys, "classes", "--input", path)
    code2, sagbi_report = _run_json(capsys, "detect-sagbi", "--input", path)
    elapsed = time.monotonic() - start
    ok = (
        code1 == 0
        and code2 == 0
        and len(classes_report["classes"]) == 2
        and len(sagbi_report["classes"]) == 1
        and sagbi_report["classes"][0]["leading_monomials"]
        == ["x^2", "x*y", "y^2"]
        and elapsed < 5
    )
    _finish(10, ok, "2 classes, SAGBI only where w_x > w_y, %.1fs" % elapsed)


@pytest.mark.slow
def test_criterion_11_principal_minors(tmp_path, capsys):
    start = time.monotonic()
    path = _write(
        tmp_path, systems.principal_minors_symmetric_3x3(), "principal.txt"
    )
    code1, classes_report = _run_json(
        capsys, "classes", "--input", path, "--homogenize-t"
    )
    code2, sagbi_report = _run_json(
        capsys, "detect-sagbi", "--input", path, "--homogenize-t"
    )
    code3, rank_report = _run_json(
        capsys, "rank", "--input", path, "--homogenize-t", "--criterion", "nicer"
    )
    elapsed = time.monotonic() - start
    signatures = {
        (g["dim"], g["degree"]) for g in rank_report["groups"]
    }
    ok = (
        code1 == 0
        and code2 == 1
        and code3 == 0
        and len(classes_report["classes"]) == 14
        and sagbi_report["classes"] == []
        and len(rank_report["groups"]) == 5
        and signatures == {(6, 3), (6, 2), (5, 3), (4, 4), (3, 6)}
        and rank_report["groups"][0]["dim"] == 6
        and rank_report["groups"][0]["degree"] == 3
        and elapsed < 60
    )
    _finish(
        11, ok, "14 classes, no SAGBI, nicer table signatures, %.1fs" % elapsed
    )


@pytest.mark.slow
def test_criterion_12_truncation_variety(tmp_path, capsys):
    start = time.monotonic()
    path = _write(
        tmp_path, systems.truncation_variety_generators(), "truncation.txt"
    )
    code, report = _run_json(
        capsys, "detect-sagbi", "--input", path, "--homogenize-t"
    )
    elapsed = time.monotonic() - start
    ok = code == 1 and report["classes"] == [] and elapsed < 60
    _finish(12, ok, "t*Q is never a SAGBI basis, %.1fs" % elapsed)


@pytest.mark.slow
def test_criterion_13_sullivant_talaska(tmp_path, capsys):
    start = time.monotonic()
    path = _write(tmp_path, systems.sullivant_talaska_c4(), "st4.txt")
    code, report = _run_json(capsys, "detect-gb", "--input", path)
    elapsed = time.monotonic() - start
    ok = code == 0 and len(report["classes"]) == 9 and elapsed < 60
    _finish(13, ok, "9 GB classes, %.1fs" % elapsed)


def test_criterion_14_property_suites(tmp_path, capsys):
    """The randomized suites live in test_properties.py and run in the same
    pytest invocation; the CLI determinism half is asserted here."""
    start = time.monotonic()
    path = _write(tmp_path, systems.twisted_cubic(), "det.txt")
    outputs = []
    for jobs in ("1", "4"):
        code = main(
            ["detect-gb", "--input", path, "--jobs", jobs, "--format", "json"]
        )
        assert code == 0
        outputs.append(capsys.readouterr().out)
    elapsed = time.monotonic() - start
    ok = outputs[0] == outputs[1]
    _finish(14, ok, "byte-identical output for --jobs 1 and 4, %.1fs" % elapsed)


@pytest.mark.slow
def test_criterion_15_grassmannian_2_5(tmp_path, capsys):
    """Full Gr(2,5): all 120 classes pass the subduction criterion.  The
    time bound fails if the toric relations go back to the generic
    ``Fraction`` Buchberger, with which each of the two commands takes
    over a minute on a 2-core machine."""
    start = time.monotonic()
    path = _write(tmp_path, systems.grassmannian_2_5(), "gr25.txt")
    code1, sagbi = _run_json(capsys, "detect-sagbi", "--input", path)
    code2, usagbi = _run_json(capsys, "universal-sagbi", "--input", path)
    elapsed = time.monotonic() - start
    ok = (
        (code1, code2) == (0, 0)
        and len(sagbi["classes"]) == 120
        and usagbi["universal"] is True
        and elapsed < 60
    )
    _finish(15, ok, "120 SAGBI classes, universal, %.1fs" % elapsed)


@pytest.mark.slow
def test_criterion_16_truncation_nicer_ranking(tmp_path, capsys):
    """Full truncation variety with t: the nicer ranking of all 210 classes
    by (dimension, normalized volume).  The time bound fails if the volume
    goes back to a facet scan over point subsets, with which this ranking
    needs hours."""
    start = time.monotonic()
    path = _write(
        tmp_path, systems.truncation_variety_generators(), "truncation.txt"
    )
    code, report = _run_json(
        capsys, "rank", "--input", path, "--homogenize-t", "--criterion", "nicer"
    )
    elapsed = time.monotonic() - start
    groups = [
        ((g["dim"], g["degree"]), len(g["classes"])) for g in report["groups"]
    ]
    ok = (
        code == 0
        and groups
        == [
            ((10, 40), 36),
            ((10, 38), 54),
            ((10, 37), 6),
            ((10, 34), 6),
            ((9, 42), 102),
            ((9, 38), 6),
        ]
        and elapsed < 60
    )
    _finish(16, ok, "210 classes in 6 nicer groups, %.1fs" % elapsed)


# the six SAGBI classes of the 2x2 minors, by leading monomials, as the
# subduction criterion finds them (criterion 8)
MINORS_SAGBI_LEADS = {
    tuple("t12*t21 t13*t21 t13*t22 t11*t32 t13*t31 t13*t32 t21*t32 t21*t33 t23*t32".split()),
    tuple("t12*t21 t13*t21 t12*t23 t12*t31 t11*t33 t12*t33 t21*t32 t21*t33 t22*t33".split()),
    tuple("t12*t21 t11*t23 t12*t23 t12*t31 t13*t31 t12*t33 t22*t31 t23*t31 t23*t32".split()),
    tuple("t11*t22 t13*t21 t13*t22 t12*t31 t13*t31 t13*t32 t22*t31 t23*t31 t22*t33".split()),
    tuple("t11*t22 t11*t23 t13*t22 t11*t32 t11*t33 t12*t33 t22*t31 t21*t33 t22*t33".split()),
    tuple("t11*t22 t11*t23 t12*t23 t11*t32 t11*t33 t13*t32 t21*t32 t23*t31 t23*t32".split()),
}


@pytest.mark.slow
def test_criterion_17_minors_hilbert_method(tmp_path, capsys):
    """The Hilbert criterion on the 2x2 minors, up to the default degree
    12, finds the classes the subduction criterion finds.  The time bound
    fails if the subalgebra's Hilbert function goes back to being
    recomputed for each of the 102 classes (about 16 s on a 2-core
    machine)."""
    path = _write(tmp_path, systems.minors_2x2_of_3x3(), "minors.txt")
    start = time.monotonic()
    code, report = _run_json(
        capsys, "detect-sagbi", "--method", "hilbert", "--input", path
    )
    elapsed = time.monotonic() - start
    found = [tuple(c["leading_monomials"]) for c in report["classes"]]
    _, subduction = _run_json(capsys, "detect-sagbi", "--input", path)
    by_subduction = {tuple(c["leading_monomials"]) for c in subduction["classes"]}
    ok = (
        code == 0
        and len(found) == 6
        and set(found) == MINORS_SAGBI_LEADS == by_subduction
        and "truncated at degree 12" in report["bound_warning"]
        and elapsed < 10
    )
    _finish(17, ok, "the 6 subduction SAGBI classes, %.1fs" % elapsed)


@pytest.mark.slow
def test_criterion_18_truncation_subduction(tmp_path, capsys):
    """Full truncation variety without t, the heaviest subduction run: 102
    of the 210 classes pass.  Each class subduces about a hundred lifted
    relations; the run takes 20 to 30 s on a 2-core machine."""
    start = time.monotonic()
    path = _write(
        tmp_path, systems.truncation_variety_generators(), "truncation.txt"
    )
    code, report = _run_json(capsys, "detect-sagbi", "--input", path)
    elapsed = time.monotonic() - start
    ok = code == 0 and len(report["classes"]) == 102 and elapsed < 45
    _finish(18, ok, "102 of 210 SAGBI classes, %.1fs" % elapsed)


@pytest.mark.slow
def test_criterion_19_truncation_preferable_ranking(tmp_path, capsys):
    """The first 16 truncation generators with t: the preferable ranking
    of 36 classes by Hilbert vector up to the default degree 12.  Ten of
    the leads are those of single-term generators, the same in every
    class; the run takes about half a second on a 2-core machine."""
    lines = (SYSTEMS_DIR / "truncation_variety.sys").read_text().splitlines()
    start = lines.index("polys:") + 1
    path = tmp_path / "truncation16.sys"
    path.write_text("\n".join(lines[: start + 16]) + "\n")
    begin = time.monotonic()
    code, report = _run_json(
        capsys, "rank", "--input", str(path), "--homogenize-t",
        "--criterion", "preferable",
    )
    elapsed = time.monotonic() - begin
    groups = report["groups"]
    ok = (
        code == 0
        and [len(g["classes"]) for g in groups] == [6, 12, 6, 6, 6]
        and groups[0]["hilbert_vector"]
        == [1, 10, 16, 55, 104, 241, 439, 874, 1491, 2667, 4354, 7192]
        and "truncated at degree 12" in report["bound_warning"]
        and elapsed < 10
    )
    _finish(19, ok, "36 classes in 5 preferable groups, %.1fs" % elapsed)
