"""Benchmark of the basisdetect CLI: three closed-loop workloads.

    python3 perfbench/run.py --workload {enumerate,criterion,rank} \
        --seed N [--seconds S] [--trace 0|1]

One client runs the workload's invocations one at a time, each in a fresh
interpreter (``python3 -m basisdetect ... --format json --jobs 1``) with
the input on stdin.  The seed permutes the variable and generator orders
of every input.  The run repeats *rounds*, each one invocation of
everything, until the next round would end after ``--seconds``, and keeps
each invocation's fastest round; the sum of these is the time of one
*pass* of the workload.  Every report is checked (see ``answers.py``).

``--trace 0`` reports the end-to-end metrics: the pass wall time and child
CPU time (sums of the fastest rounds), the highest peak RSS of any
invocation, and the median wall time of a trivial invocation (set-up).
Each untraced round also runs a fixed reference program
(``reference.py``) twice, and the three times are scaled by ``REFERENCE_S``
over its fastest time in the run, so they read as on a machine as fast as
the baseline one; the table also prints them unscaled.
``--trace 1`` follows each round with a traced round (``trace_child.py``)
and reports per-layer metrics from the fastest traced rounds plus the
tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a table
of every metric with its unit.  The exit code is 1 when any answer is
wrong, 2 when the repository is not there to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import inputs
import tracing
from answers import Checker, load_answers

HERE = Path(__file__).resolve().parent
ROOT = inputs.ROOT
OUT_DIR = ROOT / ".perfbench"

MIN_ROUNDS = 3
SETUP_SAMPLES = 7  # at least, for the median set-up time
SETUP_TRIES = 3  # trivial invocations in a row per set-up sample
SETUP_SPACING_S = 3.0
# The fastest time of reference.py on the baseline machine (see README.md);
# timings are reported at this speed.
REFERENCE_S = 0.28
INVOCATION_LIMIT_S = 150.0
RUN_LIMIT_S = 170.0  # every child is killed by then, so a run ends within 180 s

TRIVIAL = inputs.Invocation("detect-gb", "trivial")
TRIVIAL_ANSWER = {"exit": 0, "classes": [["x"]]}


@dataclass
class Outcome:
    code: int | None  # None when killed at the time limit
    stdout: str
    stderr: str
    wall: float
    cpu: float
    maxrss_kb: int


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # Fixed string hashing, so one input always costs the same work.
    env["PYTHONHASHSEED"] = "0"
    return env


ENV = _child_env()


class Spawner:
    """The helper process (``spawner.py``) that starts every child, so that
    a child's peak RSS is its own and not the runner's."""

    def __init__(self):
        OUT_DIR.mkdir(exist_ok=True)
        self.paths = [
            OUT_DIR / ("%s-%d" % (name, os.getpid())) for name in ("in", "out", "err")
        ]
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=ENV,
            cwd=ROOT,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        for path in self.paths:
            path.unlink(missing_ok=True)

    def run(self, argv: list[str], stdin_text: str, timeout: float) -> Outcome:
        """Run one child to completion; it is killed at ``timeout``."""
        self.paths[0].write_text(stdin_text, encoding="utf-8")
        request = [repr(timeout)] + [str(p) for p in self.paths] + argv
        self.proc.stdin.write("\t".join(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().split("\t")
        if len(reply) != 4:
            raise RuntimeError("the spawner process ended")
        return Outcome(
            None if reply[0] == "killed" else int(reply[0]),
            self.paths[1].read_text(encoding="utf-8", errors="replace"),
            self.paths[2].read_text(encoding="utf-8", errors="replace"),
            float(reply[1]),
            float(reply[2]),
            int(reply[3]),
        )


class Run:
    """State of one benchmark run: its deadline, answers and tallies."""

    def __init__(self, workload: str, seed: int, spawner: Spawner):
        self.spawner = spawner
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.answers = load_answers()
        self.attempted = 0
        self.failed = 0
        names = {inv.system for inv in inputs.WORKLOADS[workload]} | {TRIVIAL.system}
        self.originals = {name: inputs.SYSTEMS[name]() for name in names}
        self.trivial = (
            TRIVIAL, inputs.relabel(self.originals[TRIVIAL.system]), TRIVIAL_ANSWER,
            [sys.executable, "-m", "basisdetect"],
        )
        # One untimed trivial invocation first fills the bytecode cache.
        self.invoke(*self.trivial)
        self.setup: list[float] = []
        self.reference: list[float] = []
        self.with_reference = False
        self.last_setup = float("-inf")

    def invoke(self, inv, relabelled, expected, argv_prefix) -> Outcome:
        """One checked invocation; a failure is counted and described."""
        remaining = self.deadline - time.monotonic()
        outcome = self.spawner.run(
            argv_prefix + inv.argv(),
            relabelled.system.text(),
            max(0.1, min(INVOCATION_LIMIT_S, remaining)),
        )
        self.attempted += 1
        if outcome.code is None:
            problems = ["timed out after %.1f s" % outcome.wall]
        else:
            problems = Checker(inv, self.originals[inv.system], relabelled).check(
                outcome.code, outcome.stdout, expected
            )
        if problems:
            self.failed += 1
            print("FAILED %s: %s" % (inv.key, "; ".join(problems)), file=sys.stderr)
            if outcome.stderr.strip():
                print(outcome.stderr.strip()[-2000:], file=sys.stderr)
        return outcome

    def setup_sample(self) -> None:
        """If no set-up time was taken in the last ``SETUP_SPACING_S``, take
        the least wall time of ``SETUP_TRIES`` trivial invocations in a row,
        so the samples spread over the whole run."""
        now = time.monotonic()
        if now - self.last_setup >= SETUP_SPACING_S:
            self.last_setup = now
            self.setup.append(min(self.invoke(*self.trivial).wall for _ in range(SETUP_TRIES)))

    def reference_sample(self) -> None:
        """One run of the reference program (``reference.py``), whose time
        gives the machine's current speed."""
        outcome = self.spawner.run(
            [sys.executable, str(HERE / "reference.py")], "",
            max(0.1, min(INVOCATION_LIMIT_S, self.deadline - time.monotonic())),
        )
        if outcome.code != 0:
            raise RuntimeError("the reference program failed: %s" % outcome.stderr)
        self.reference.append(outcome.wall)

    def run_round(self, work: list, traced: bool) -> list:
        """Every invocation of ``work`` once; returns (outcome, trace) pairs."""
        spans_path = OUT_DIR / ("spans-%d.json" % os.getpid())
        if traced:
            prefix = [sys.executable, str(HERE / "trace_child.py"), str(spans_path)]
        else:
            prefix = [sys.executable, "-m", "basisdetect"]
        results = []
        for i, (inv, relabelled) in enumerate(work):
            if self.with_reference and not traced and i in (0, len(work) // 2):
                self.reference_sample()
            if not traced:
                self.setup_sample()
            outcome = self.invoke(inv, relabelled, self.answers.get(inv.key), prefix)
            trace = None
            if traced and spans_path.exists():
                with open(spans_path, encoding="utf-8") as handle:
                    trace = dict(json.load(handle), invocation=inv.key)
                spans_path.unlink()
            results.append((outcome, trace))
        return results

    def rounds(self, seconds: float, traced: bool) -> dict:
        """Run rounds until the next one would end after ``seconds``.

        A round runs every invocation once (and, when ``traced``, once more
        with tracing on), on inputs relabelled from the seed.  Each
        invocation keeps its fastest round: on a shared machine the speed
        of the processor drifts with other tenants' load, by up to 1.5x
        over seconds to minutes, and the fastest of several rounds spread
        over the run is far steadier than any one of them.  There are
        always at least ``MIN_ROUNDS`` rounds.
        """
        work = [
            (inv, inputs.relabel(self.originals[inv.system],
                                 inputs.stream(self.seed, inv.system)))
            for inv in inputs.WORKLOADS[self.workload]
        ]
        best = {False: [None] * len(work), True: [None] * len(work)}
        peak = 0
        begin = time.monotonic()
        r = 0
        while True:
            for mode in (False, True) if traced else (False,):
                for i, (outcome, trace) in enumerate(self.run_round(work, mode)):
                    if not mode:
                        peak = max(peak, outcome.maxrss_kb)
                    if best[mode][i] is None or outcome.wall < best[mode][i][0].wall:
                        best[mode][i] = (outcome, trace)
            r += 1
            now = time.monotonic()
            mean = (now - begin) / r
            if r >= MIN_ROUNDS and now - begin + mean > seconds:
                break
            if now + mean > self.deadline:
                break

        def pass_of(kept: list) -> dict:
            return {
                "wall": sum(outcome.wall for outcome, _ in kept),
                "cpu": sum(outcome.cpu for outcome, _ in kept),
                "traces": [trace for _, trace in kept if trace is not None],
            }

        return {
            "untraced": pass_of(best[False]),
            "traced": pass_of(best[True]) if traced else None,
            "peak_kb": peak,
            "rounds": r,
        }


def _layer_metrics(traced: dict, untraced: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    stats: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    for t in traced["traces"]:
        for name, values in tracing.summarize(t["spans"]).items():
            total = stats.setdefault(name, dict.fromkeys(values, 0))
            for field, value in values.items():
                total[field] += value
        for key, n in t["counts"].items():
            counts[key] = counts.get(key, 0) + n

    def stat(name, field):
        return stats.get(name, {}).get(field, 0)

    out = {}
    for name in tracing.LAYER_OF:
        out[name + ".calls"] = stat(name, "calls")
        out[name + ".s"] = stat(name, "s")
    out["cli.main.self_s"] = stat("cli.main", "self_s")
    out.update(counts)
    joint = counts.get("orders.cone_feasibility.joint_calls", 0)
    out["enumerate.yield"] = counts.get("enumerate.classes", 0) / joint if joint else 0.0
    ranked = counts.get("rank.nicer_classes", 0)
    out["rank.volume_calls_per_class"] = (
        stat("orders.normalized_volume", "calls") / ranked if ranked else 0.0
    )
    total = stat("cli.main", "s")
    for layer in tracing.LAYERS:
        self_s = sum(v["self_s"] for k, v in stats.items() if tracing.LAYER_OF[k] == layer)
        out["layer.%s.share" % layer] = self_s / total if total else 0.0
    out["trace.overhead_s"] = traced["wall"] - untraced["wall"]
    return out


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _table(rows: list[tuple[str, list[float], str]]) -> None:
    print("%-44s %12s %12s %12s %4s  %s" % ("metric", "median", "min", "max", "n", "unit"))
    for name, values, unit in rows:
        print(
            "%-44s %12.6g %12.6g %12.6g %4d  %s"
            % (name, statistics.median(values), min(values), max(values), len(values), unit)
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "basisdetect" / "cli.py").is_file() or not inputs.SYSTEMS_DIR.is_dir():
        print("no basisdetect checkout around %s" % HERE, file=sys.stderr)
        return 2
    spec = _benchmark_spec()

    with Spawner() as spawner:
        return _measure(args, spec, Run(args.workload, args.seed, spawner))


def _measure(args, spec: dict, run: Run) -> int:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    run.with_reference = not args.trace
    result = run.rounds(args.seconds, bool(args.trace))
    untraced, traced = result["untraced"], result["traced"]
    if args.trace:
        values = _layer_metrics(traced, untraced)
        samples = {name: [value] for name, value in values.items()}
        path = OUT_DIR / ("trace-%s-%d.json" % (args.workload, args.seed))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(traced["traces"], handle)
        names = [m["name"] for m in spec["per_layer"]]
    else:
        while len(run.setup) < SETUP_SAMPLES:
            run.last_setup = float("-inf")
            run.setup_sample()
        # Scale every time to the reference speed: on a shared machine the
        # speed of the processor follows other tenants' load, and the fastest
        # reference run of this run tells how fast it was.
        scale = REFERENCE_S / min(run.reference)
        samples = {
            "wall_s": [untraced["wall"] * scale],
            "cpu_s": [untraced["cpu"] * scale],
            "peak_rss_mb": [result["peak_kb"] / 1024],
            "setup_s": [statistics.median(run.setup) * scale],
        }
        raw = [
            ("wall_raw_s", [untraced["wall"]], "s"),
            ("cpu_raw_s", [untraced["cpu"]], "s"),
            ("setup_raw_s", run.setup, "s"),
            ("reference_s", run.reference, "s"),
        ]
        names = [m["name"] for m in spec["end_to_end"]]
    rows = [(name, samples.get(name, [0.0]), units[name]) for name in names]
    print("rounds: %d" % result["rounds"])
    _table(rows + ([] if args.trace else raw))
    ratio = run.failed / run.attempted
    print("%-44s %12.6g %12s %12s %4d  %s" % ("failed_ratio", ratio, "", "", run.attempted, "ratio"))
    summary = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": statistics.median(values), "unit": unit}
            for name, values, unit in rows
        },
    }
    print(json.dumps(summary))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
