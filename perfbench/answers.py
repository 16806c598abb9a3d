"""Answer checks that do not trust the program.

A report is mapped back to the original variable and generator order and
reduced to its *answer*: exit code, verdict, and the classes as tuples of
leading monomials (one per original generator).  The answer does not depend
on the relabelling, so one recorded answer serves every seed.  Each report
is checked three ways:

* rules: the exit code is 0, or 1 only for a complete ``detect-*`` report
  with no classes; every weight is a nonnegative integer vector that
  strictly selects every reported leading monomial over the rest of its
  generator's support (plain integer dot products on supports parsed here);
* pinned counts and leads copied from ``tests/test_acceptance.py``;
* the answer recorded from the unpermuted input (``answers.json``, written
  by ``record_answers.py``).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from inputs import Invocation, Relabelled, System

ANSWERS_FILE = Path(__file__).resolve().parent / "answers.json"

# Pinned by tests/test_acceptance.py (criterion number in the comment).
PINNED = {
    "detect-gb minors_2x2_of_3x3": {"classes": 96},  # 8
    "detect-sagbi grassmannian_2_4": {"classes": 24},  # 7
    "universal-sagbi grassmannian_2_4": {"universal": True},  # 7
    "universal-gb grassmannian_2_4": {"universal": True},  # 7
    # 3: the one class is the one of weight (12, 15, 27)
    "detect-gb three_surfaces": {"classes": 1, "leads": [["x^5", "y^2", "z^3"]]},
    "detect-sagbi elementary_symmetric": {"classes": 6},  # 6
    # 10: SAGBI only where w_x > w_y
    "detect-sagbi two_cone": {"classes": 1, "leads": [["x^2", "x*y", "y^2"]]},
    # 4: the one class is the one of weight (1, 2)
    "detect-sagbi sagbi_trio": {"classes": 1, "leads": [["x", "y^2", "x^2*y"]]},
    "detect-sagbi non_sagbi_trio": {"classes": 0},  # 5
    # 11: 14 classes in 5 groups, the (6, 3) group first
    "rank principal_minors --homogenize-t --criterion nicer": {
        "classes": 14,
        "scores": [[6, 3], [6, 2], [5, 3], [4, 4], [3, 6]],
    },
}

_TERM = re.compile(r"\s*([+-]?)\s*([^+-]+)")


def parse_monomial(text: str) -> dict[str, int]:
    """``x^2*y`` -> {'x': 2, 'y': 1}; ``1`` -> {}; integer factors ignored."""
    exps: dict[str, int] = {}
    for factor in text.strip().split("*"):
        factor = factor.strip()
        name, _, power = factor.partition("^")
        if re.fullmatch(r"\d+(/\d+)?", name):
            continue
        exps[name] = exps.get(name, 0) + (int(power) if power else 1)
    return exps


def parse_support(expr: str) -> list[dict[str, int]]:
    """Support of an expanded expression such as ``x*z - y^2 + 2*x``."""
    if "(" in expr:
        raise ValueError("only expanded expressions are supported: %r" % expr)
    coeffs: dict[tuple, Fraction] = {}
    for sign, term in _TERM.findall(expr):
        coeff = Fraction(-1 if sign == "-" else 1)
        for factor in term.split("*"):
            if re.fullmatch(r"\s*\d+(/\d+)?\s*", factor):
                coeff *= Fraction(factor.strip())
        key = tuple(sorted(parse_monomial(term).items()))
        coeffs[key] = coeffs.get(key, 0) + coeff
    return [dict(key) for key, c in coeffs.items() if c]


def _dot(weight: dict[str, int], exps: dict[str, int]) -> int:
    return sum(weight[name] * e for name, e in exps.items())


class Checker:
    """Checks the reports of one invocation on one relabelled input."""

    def __init__(self, inv: Invocation, original: System, relabelled: Relabelled):
        self.inv = inv
        self.relabelled = relabelled
        prefix = ("t",) if inv.homogenized else ()
        self.original_vars = prefix + original.variables
        self.report_vars = prefix + relabelled.system.variables
        self.supports = []
        for expr in relabelled.system.polys:
            support = parse_support(expr)
            if inv.homogenized:
                support = [dict(m, t=1) for m in support]
            self.supports.append(support)

    def _canonical_monomial(self, exps: dict[str, int]) -> str:
        parts = []
        for name in self.original_vars:
            e = exps.get(name, 0)
            if e:
                parts.append(name if e == 1 else "%s^%d" % (name, e))
        return "*".join(parts) if parts else "1"

    def _class(self, entry, problems: list[str]) -> tuple[str, ...]:
        """Check one class entry and return it in the original order."""
        weight = entry.get("weight")
        leads = entry.get("leading_monomials")
        if (
            not isinstance(weight, list)
            or len(weight) != len(self.report_vars)
            or not all(type(w) is int and w >= 0 for w in weight)
        ):
            problems.append("bad weight %r" % (weight,))
            return ()
        if not isinstance(leads, list) or len(leads) != len(self.supports):
            problems.append("bad leading monomials %r" % (leads,))
            return ()
        w = dict(zip(self.report_vars, weight))
        canonical = [""] * len(leads)
        for k, (lead_text, support) in enumerate(zip(leads, self.supports)):
            lead = parse_monomial(lead_text)
            if lead not in support:
                problems.append("%s is not in generator %d" % (lead_text, k))
                continue
            top = _dot(w, lead)
            if any(u != lead and _dot(w, u) >= top for u in support):
                problems.append(
                    "weight %s does not strictly select %s" % (weight, lead_text)
                )
            canonical[self.relabelled.gen_order[k]] = self._canonical_monomial(lead)
        return tuple(canonical)

    def answer(self, code: int, stdout: str, problems: list[str]) -> dict | None:
        """The relabelling-free answer of a report; rule breaks go to problems."""
        try:
            report = json.loads(stdout)
        except ValueError:
            problems.append("stdout is not a JSON report (exit %d)" % code)
            return None
        if not isinstance(report, dict):
            problems.append("report is not a JSON object")
            return None
        if report.get("variables") != list(self.report_vars):
            problems.append("report variables %r" % (report.get("variables"),))
            return None
        command = self.inv.command
        out: dict = {"exit": code}
        try:
            if command.startswith("detect-") or command == "classes":
                classes = [self._class(e, problems) for e in report["classes"]]
                out["classes"] = sorted(list(c) for c in classes)
                allowed = {1} if command.startswith("detect-") and not classes else {0}
            elif command.startswith("universal-"):
                out["universal"] = report["universal"]
                example = report["counterexample"]
                out["counterexample"] = (
                    None if example is None else list(self._class(example, problems))
                )
                if out["universal"] != (example is None):
                    problems.append("verdict and counterexample disagree")
                allowed = {0}
            else:
                out["groups"] = [
                    {
                        "score": (
                            [g["dim"], g["degree"]]
                            if report["criterion"] == "nicer"
                            else g["hilbert_vector"]
                        ),
                        "classes": sorted(
                            list(self._class(e, problems)) for e in g["classes"]
                        ),
                    }
                    for g in report["groups"]
                ]
                out["bound_warning"] = report.get("bound_warning")
                allowed = {0}
        except (KeyError, TypeError) as exc:
            problems.append("incomplete report: %r" % (exc,))
            return None
        if code not in allowed:
            problems.append("exit code %d" % code)
        return out

    def check(self, code: int, stdout: str, expected: dict | None) -> list[str]:
        """Every problem found with one report; empty means correct."""
        problems: list[str] = []
        answer = self.answer(code, stdout, problems)
        if answer is None:
            return problems
        pinned = PINNED.get(self.inv.key, {})
        if "classes" in pinned:
            if "groups" in answer:
                count = sum(len(g["classes"]) for g in answer["groups"])
            else:
                count = len(answer["classes"])
            if count != pinned["classes"]:
                problems.append("%d classes, pinned %d" % (count, pinned["classes"]))
        if "leads" in pinned and answer.get("classes") != pinned["leads"]:
            problems.append("classes %r, pinned %r" % (answer["classes"], pinned["leads"]))
        if "universal" in pinned and answer.get("universal") != pinned["universal"]:
            problems.append("universal is %r" % answer.get("universal"))
        if "scores" in pinned:
            scores = [g["score"] for g in answer["groups"]]
            if scores != pinned["scores"]:
                problems.append("group scores %r, pinned %r" % (scores, pinned["scores"]))
        if expected is None:
            problems.append("no recorded answer for %r" % self.inv.key)
        elif answer != expected:
            problems.append("answer differs from the recorded one")
        return problems


def load_answers() -> dict:
    with open(ANSWERS_FILE, encoding="utf-8") as handle:
        return json.load(handle)["answers"]
