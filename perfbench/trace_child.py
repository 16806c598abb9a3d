"""Run one basisdetect CLI invocation with tracing on.

    python3 perfbench/trace_child.py SPANS_JSON CLI_ARG...

The report goes to stdout exactly as ``python3 -m basisdetect CLI_ARG...``
would write it; the spans and counts of the run are written to SPANS_JSON
when the run ends.
"""

import json
import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracing.Recorder()
    cli = tracing.install(recorder)
    try:
        return cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": recorder.spans, "counts": recorder.counts}, handle)


if __name__ == "__main__":
    sys.exit(main())
