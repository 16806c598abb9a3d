"""Record the answer of every benchmark invocation into ``answers.json``.

    python3 perfbench/record_answers.py

Runs each invocation once on its unpermuted input and stores the answer
(see ``answers.py``).  Run it only on a commit whose tier-1 tests pass; it
refuses to record a report that breaks a rule or a pinned count.  The
commit is stored with the answers.
"""

import json
import subprocess
import sys

import inputs
from answers import ANSWERS_FILE, Checker
from run import INVOCATION_LIMIT_S, ROOT, Spawner


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main() -> int:
    with Spawner() as spawner:
        answers = _record(spawner)
    if answers is None:
        return 1
    with open(ANSWERS_FILE, "w", encoding="utf-8") as handle:
        json.dump({"recorded_from": _commit(), "answers": answers}, handle, indent=1)
        handle.write("\n")
    return 0


def _record(spawner: Spawner) -> dict | None:
    answers = {}
    for workload, invocations in inputs.WORKLOADS.items():
        for inv in invocations:
            if inv.key in answers:
                continue
            original = inputs.SYSTEMS[inv.system]()
            relabelled = inputs.relabel(original)
            outcome = spawner.run(
                [sys.executable, "-m", "basisdetect"] + inv.argv(),
                relabelled.system.text(),
                INVOCATION_LIMIT_S,
            )
            if outcome.code is None:
                print("%s: timed out" % inv.key, file=sys.stderr)
                return None
            checker = Checker(inv, original, relabelled)
            answer = checker.answer(outcome.code, outcome.stdout, [])
            problems = checker.check(outcome.code, outcome.stdout, answer)
            if problems:
                print("%s: %s" % (inv.key, "; ".join(problems)), file=sys.stderr)
                return None
            answers[inv.key] = answer
            print("%-60s %6.2f s" % (inv.key, outcome.wall))
    return answers


if __name__ == "__main__":
    sys.exit(main())
