"""Run the benchmark on several seeds and summarize each metric.

    python3 perfbench/baseline.py [--seeds 1-10] [--workloads a,b] [--out FILE]

For every workload and end-to-end metric it prints the median of the
per-run values and their spread: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median.
With ``--out`` it also writes every value to a JSON file, which is how
``baseline.json`` was made.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys

from record_answers import _commit
from run import HERE, ROOT, _benchmark_spec


# table rows printed besides the metrics, and the column to keep
UNSCALED = {"wall_raw_s": 1, "cpu_raw_s": 1, "setup_raw_s": 1, "reference_s": 2}


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = _benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print("%s seed %d failed:\n%s" % (workload, seed, proc.stderr), file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            # the unscaled times from the table: median, or fastest reference
            for line in proc.stdout.splitlines():
                fields = line.split()
                if fields and fields[0] in UNSCALED:
                    values.setdefault(fields[0], []).append(float(fields[UNSCALED[fields[0]]]))
            print("%s seed %d: %s" % (workload, seed, {
                k: round(v["value"], 4) for k, v in result["metrics"].items()
            }), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary[workload][name] = {"median": median, "spread": spread, "values": vals}
            print("  %-10s %-12s median %10.4f  spread %.4f  (bound %s)"
                  % (workload, name, median, spread, bounds.get(name, "-")), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({
                "commit": _commit(),
                "seeds": args.seeds,
                "run_seconds": spec["run_seconds"],
                "machine": "%s, %s, Python %s" % (
                    platform.machine(), platform.system(), platform.python_version()),
                "workloads": summary,
            }, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
