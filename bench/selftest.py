#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny inputs.

Run from the repository root:  python3 bench/selftest.py

Checks that every request has a reference answer, that every metric
named in BENCHMARK.json is emitted in both modes, that the traced self times
add up to the time inside ``cli.run``, that a deliberately wrong reference
value is reported as a failure, and that a crashing or hanging request is
counted rather than aborting the run.  Exits 0 when all checks hold.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys

import run
from run import Spec, Workload, gf_spec

TINY = Workload("selftest", 10.0, (
    Spec("count", 3, "stable", 10),
    Spec("count", 3, "strongly-stable", 10),
    Spec("count", 2, "stable", 10),
    Spec("list", 3, "strongly-stable", 6),
    Spec("list", 2, "stable", 8),
    Spec("verify", 3, "stable", 4),
    gf_spec("shifted", "--shape", "3,2", "--a", "5,3", "--b", "1,1", "--c", "1", "--d", "0"),
))
WRONG_KEY = run.census_key(3, "stable", 10)


def check(problems: list[str], ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def main() -> int:
    problems: list[str] = []
    reference = run.load_reference()
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)

    missing = [
        str(r)
        for w in [*run.WORKLOADS.values(), TINY]
        for r in run.requests_for(w)
        if r.key and r.key not in reference["gf" if r.check == "digest" else "census"]
    ]
    check(problems, not missing, f"every request has a reference answer {missing}")

    plain = run.run_workload(TINY, 1, 0, False, reference)
    check(problems, plain.failed == 0 and plain.correct,
          f"tiny workload passes ({[o.detail for o in plain.outcomes if not o.ok]})")
    want = {m["name"] for m in declared["end_to_end"]}
    check(problems, set(plain.metrics) == want,
          f"--trace 0 emits exactly the end_to_end metrics {set(plain.metrics) ^ want}")

    traced = run.run_workload(TINY, 1, 0, True, reference)
    want = {m["name"] for m in declared["per_layer"]}
    check(problems, set(traced.metrics) == want,
          f"--trace 1 emits exactly the per_layer metrics {set(traced.metrics) ^ want}")
    check(problems, traced.metrics["qpolys.gf_shifted.calls"]["value"] > 0
          and traced.metrics["oracle.order_ideals"]["value"] > 0
          and traced.metrics["bijections.items"]["value"] > 0,
          "the traced run sees calls in qpolys, oracle and bijections")
    for o in traced.outcomes:
        if o.trace is not None:
            inside = o.trace["seconds"]["cli.run"]
            total_self = sum(o.trace["self_s"].values())
            check(problems, abs(total_self - inside) <= 1e-6 * max(1.0, inside),
                  f"module self times add up to cli.run for request {o.trace['request']}")

    bad = copy.deepcopy(reference)
    bad["census"][WRONG_KEY]["total"] += 1
    wrong = run.run_workload(TINY, 1, 0, False, bad)
    flagged = [o for o in wrong.outcomes if not o.ok]
    check(problems, not wrong.correct and len(flagged) == 1
          and flagged[0].status == "wrong" and flagged[0].request.key == WRONG_KEY,
          "a wrong reference value is reported as a wrong answer")

    crash_argv, hang_argv = TINY.specs[0].request().argv, TINY.specs[1].request().argv
    real_command = run.child_command

    def faulty_command(req, report_fd, traced, request_id):
        if req.argv == crash_argv:
            return [sys.executable, "-c", "raise RuntimeError('deliberate crash')"]
        if req.argv == hang_argv:
            return [sys.executable, "-c", "import time; time.sleep(60)"]
        return real_command(req, report_fd, traced, request_id)

    run.child_command = faulty_command
    try:
        faulty = run.run_workload(dataclasses.replace(TINY, limit_s=2.0), 1, 0, False, reference)
    finally:
        run.child_command = real_command
    flagged = sorted(o.status for o in faulty.outcomes if not o.ok)
    check(problems, faulty.correct and flagged == ["error", "timeout"]
          and len(faulty.outcomes) == len(TINY.specs)
          and faulty.metrics["ok_frac"]["value"] < 1
          and faulty.metrics["slowest_s"]["value"] >= 2.0,
          "a crashing and a hanging request are counted as failed and charged the limit; "
          "the run goes on")

    print("self-test " + ("passed" if not problems else f"FAILED: {len(problems)} checks"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
