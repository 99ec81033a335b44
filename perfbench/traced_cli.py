"""Run one hopfgal CLI call under the tracer, for traced `cli-cold` runs.

    python3 perfbench/traced_cli.py <trace-file> <job-id> <hopfgal args...>

`hopfgal` must be importable (PYTHONPATH=src).  The certificate goes to
stdout as from `python -m hopfgal.cli`, the exit code is the CLI's, and the
trace (spans, counters, samples) is written to <trace-file>.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hopfgal.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_file, job_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        hopfgal.cli.__file__)))
    tracer = Tracer(src)
    tracer.install()
    try:
        with tracer.job_span(job_id):
            code = hopfgal.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(trace_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
