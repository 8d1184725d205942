"""Run one iqpsynth command with spans around its layer calls.

    python perfbench/traced_cli.py SPANS.json PEAKS <iqpsynth arguments...>

Behaves as `python -m iqpsynth.cli <arguments>`, exit code included, and
writes the spans of the run to SPANS.json.  PEAKS 1 also measures the peak
heap of serialize_circuit and parse_circuit.  The package is imported from
PYTHONPATH, as the untraced command imports it.
"""

import json
import sys

import iqpsynth.cli

from spans import Recorder


def main() -> int:
    spans_path, peaks, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    recorder = Recorder()
    recorder.peaks = peaks == "1"
    recorder.install(iqpsynth)
    code = iqpsynth.cli.main(argv)
    spans, tracer_s = recorder.take()
    with open(spans_path, "w") as handle:
        json.dump({"spans": spans, "tracer_s": tracer_s}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
