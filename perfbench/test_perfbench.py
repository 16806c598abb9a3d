"""Tests of the benchmark itself (not part of tier-1).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys

import pytest

import inputs
import tracing
from answers import Checker
from run import HERE, Spawner

SMALL = [
    inputs.Invocation("detect-gb", "twisted_cubic"),
    inputs.Invocation("detect-sagbi", "two_cone"),
    inputs.Invocation("detect-sagbi", "elementary_symmetric"),
    inputs.Invocation("universal-sagbi", "twisted_cubic"),
    inputs.Invocation("detect-sagbi", "non_sagbi_trio"),
    inputs.Invocation("rank", "principal_minors", ("--homogenize-t", "--criterion", "nicer")),
    inputs.Invocation("rank", "two_cone", ("--homogenize-t", "--criterion", "preferable")),
]


@pytest.fixture(scope="module")
def spawner():
    with Spawner() as spawner:
        yield spawner


def _run(spawner, inv, relabelled, prefix=None):
    prefix = prefix or [sys.executable, "-m", "basisdetect"]
    outcome = spawner.run(prefix + inv.argv(), relabelled.system.text(), 60)
    assert outcome.code is not None, inv.key
    return outcome


def _answer(spawner, inv, original, relabelled):
    outcome = _run(spawner, inv, relabelled)
    problems = []
    answer = Checker(inv, original, relabelled).answer(outcome.code, outcome.stdout, problems)
    assert problems == [], (inv.key, problems)
    return answer


@pytest.mark.parametrize("inv", SMALL, ids=lambda inv: inv.key)
def test_answer_is_invariant_under_relabelling(spawner, inv):
    original = inputs.SYSTEMS[inv.system]()
    expected = _answer(spawner, inv, original, inputs.relabel(original))
    moved = False
    for seed in range(1, 4):
        relabelled = inputs.relabel(original, inputs.stream(seed, inv.system))
        moved |= relabelled.system != original
        assert _answer(spawner, inv, original, relabelled) == expected, (inv.key, seed)
    assert moved, "no seed permuted %s" % inv.system


def _checker_problems(spawner, inv, stdout, code=0):
    original = inputs.SYSTEMS[inv.system]()
    relabelled = inputs.relabel(original)
    expected = _answer(spawner, inv, original, relabelled)
    return Checker(inv, original, relabelled).check(code, stdout, expected)


def test_checker_rejects_wrong_reports(spawner):
    inv = inputs.Invocation("detect-sagbi", "two_cone")
    relabelled = inputs.relabel(inputs.SYSTEMS[inv.system]())
    good = _run(spawner, inv, relabelled).stdout
    assert _checker_problems(spawner, inv, good) == []
    report = json.loads(good)
    # a weight that ties the lead x^2 with y^2 does not select it strictly
    report["classes"][0]["weight"] = [1, 1]
    assert any("strictly" in p for p in _checker_problems(spawner, inv, json.dumps(report)))
    report["classes"] = []
    assert _checker_problems(spawner, inv, json.dumps(report), code=1)
    # exit code 1 with a traceback and no report is a failure
    assert _checker_problems(spawner, inv, "", code=1)
    assert _checker_problems(spawner, inv, good[: len(good) // 2])


def test_traced_run_records_every_layer_and_keeps_stdout(spawner, tmp_path):
    spans_path = tmp_path / "spans.json"
    prefix = [sys.executable, str(HERE / "trace_child.py"), str(spans_path)]
    seen = set()
    for inv in SMALL:
        relabelled = inputs.relabel(inputs.SYSTEMS[inv.system](), "7")
        untraced = _run(spawner, inv, relabelled)
        traced = _run(spawner, inv, relabelled, prefix)
        assert traced.stdout == untraced.stdout, inv.key
        assert traced.code == untraced.code, inv.key
        with open(spans_path, encoding="utf-8") as handle:
            spans = json.load(handle)["spans"]
        seen |= {name for name, _, _, _ in spans}
        roots = [span for span in spans if span[3] == -1]
        assert [span[0] for span in roots] == ["cli.main"], inv.key
    assert {tracing.LAYER_OF[name] for name in seen} == set(tracing.LAYERS)
    assert {name.split(".")[0] for name in seen} == {
        "cli", "orders", "lp", "groebner", "toric", "sagbi"
    }
