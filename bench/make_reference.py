#!/usr/bin/env python3
"""Write bench/reference.json: the expected answer of every request of every
workload, the self-test's included.

Run from the repository root:  python3 bench/make_reference.py

Each entry records where its value comes from:

* 2-variable totals come from the distinct-part DP below (the x^p coefficient
  of prod(1 + x^k)), which shares no code with escalier.
* 3-variable totals are escalier's own census output at the commit the table
  was made from ("seed output").  Where a second source exists it is checked
  here and named: the brute-force oracle for p <= 12 and the independent
  transfer-DP values of the strongly stable census at p = 20, 30, 40.
* ``gf`` requests are recorded as a SHA-256 digest of the CLI's coefficient
  list (seed output).

A listing is checked against the census total of the same point, so it needs
no entry of its own.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import selftest  # noqa: E402
from escalier import cli, counting, oracle  # noqa: E402

SEED_COMMIT = "4347864"
# Strongly stable 3-variable totals from the row-transfer DP quoted in ROADMAP.md.
TRANSFER_DP = {20: 425, 30: 5127, 40: 48545}
Q_100 = 444793  # number of partitions of 100 into distinct parts


def distinct_partition_counts(top: int) -> list[int]:
    q = [1] + [0] * top
    for k in range(1, top + 1):
        for j in range(top, k - 1, -1):
            q[j] += q[j - k]
    return q


def census_entry(n: int, klass: str, p: int, dp: list[int]) -> dict:
    if n == 2:
        source = "distinct-part DP in bench/make_reference.py"
        if p == 100:
            if dp[p] != Q_100:
                raise SystemExit(f"distinct-part DP gives q(100) = {dp[p]}, not {Q_100}")
            source += f"; equals q(100) = {Q_100}"
        return {"total": dp[p], "source": source}
    kind = klass.replace("-", "_")
    total = counting.census(p, 3, kind).total
    source = f"seed output (escalier at {SEED_COMMIT})"
    if p <= oracle.oracle_cap(3):
        brute = oracle.count_by_definition(3, p, kind)
        if brute != total:
            raise SystemExit(f"census {n} {klass} {p}: {total} != oracle {brute}")
        source += "; equals the brute-force oracle"
    if klass == "strongly-stable" and p in TRANSFER_DP:
        if TRANSFER_DP[p] != total:
            raise SystemExit(f"census {n} {klass} {p}: {total} != {TRANSFER_DP[p]}")
        source += f"; equals the independent transfer-DP value {TRANSFER_DP[p]}"
    return {"total": total, "source": source}


def gf_entry(argv: tuple[str, ...]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(list(argv))
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    coeffs = json.loads(out.getvalue())["coeffs"]
    return {"sha256": run.gf_digest(coeffs), "degree": len(coeffs) - 1,
            "source": f"seed output (escalier at {SEED_COMMIT})"}


def main() -> None:
    workloads = [*run.WORKLOADS.values(), selftest.TINY]
    requests = [r for w in workloads for r in run.requests_for(w)]
    census_points = sorted({
        (int(n), klass, int(p))
        for n, klass, p in (r.key.split() for r in requests if r.check in ("total", "listing"))
    })
    dp = distinct_partition_counts(max(p for n, _, p in census_points if n == 2))
    table = {"census": {}, "gf": {}}
    for n, klass, p in census_points:
        key = run.census_key(n, klass, p)
        table["census"][key] = census_entry(n, klass, p, dp)
        print(key, table["census"][key]["total"], flush=True)
    for r in requests:
        if r.check == "digest" and r.key not in table["gf"]:
            table["gf"][r.key] = gf_entry(r.argv)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
