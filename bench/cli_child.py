"""Run one rindler-lab command with every layer traced.

    python3 bench/cli_child.py REPORT.json count|time ARGS...

Behaves as ``python -m rindler_lab.cli ARGS`` with the tracer of
``spans.py`` installed (``count`` also counts integrand evaluations), and
writes the tracer's report to REPORT.json when the command ends, whatever
its exit code.
"""

from __future__ import annotations

import json
import sys

import spans
from rindler_lab import cli


def main() -> None:
    report_path, mode, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = spans.Tracer(count_evals=mode == "count")
    spans.install(tracer)
    try:
        cli.main(args=args, prog_name="rindler-lab")
    finally:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(), fh)


if __name__ == "__main__":
    main()
