"""One benchmark request: run ``escalier.cli.run`` once and report timings.

Usage (spawned by ``bench/run.py``):

    python3 bench/child.py REPORT_FD TRACED REQUEST_ID ESCALIER_ARGS...

The CLI writes to this process's stdout and stderr as usual.  A JSON report
goes to the inherited file descriptor REPORT_FD: ``ready`` (the monotonic
clock just before ``cli.run``, comparable with the parent's spawn time),
``solve_s`` (time inside ``cli.run``) and, when TRACED is 1, the tracer's
summary.  The report is written even when ``cli.run`` raises; the exception
is not caught, so the process still dies with a traceback and exit code 1
like the real CLI.
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    report_fd, traced, request_id = int(sys.argv[1]), sys.argv[2] == "1", int(sys.argv[3])
    argv = sys.argv[4:]
    from escalier import cli

    tracer = None
    if traced:
        import tracing

        tracer = tracing.install(request_id)
    ready = time.monotonic()
    try:
        return cli.run(argv)
    finally:
        done = time.monotonic()
        report = {"ready": ready, "solve_s": done - ready}
        if tracer is not None:
            report["trace"] = tracer.summary()
        with os.fdopen(report_fd, "w", encoding="utf-8") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
